package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"miso/internal/storage"
)

func quickInputs(t *testing.T, seed int64) *inputs {
	t.Helper()
	in, err := newInputs(seed, true)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func take(next func() int, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = next()
	}
	return out
}

func TestInputsFollowTheSeed(t *testing.T) {
	a, b, c := quickInputs(t, 5), quickInputs(t, 5), quickInputs(t, 6)
	if !reflect.DeepEqual(take(a.draws(0), 200), take(b.draws(0), 200)) {
		t.Error("same seed, same client: draws differ")
	}
	if reflect.DeepEqual(take(a.draws(0), 200), take(a.draws(1), 200)) {
		t.Error("two clients of one seed draw the same stream")
	}
	if reflect.DeepEqual(take(a.draws(0), 200), take(c.draws(0), 200)) {
		t.Error("different seeds draw the same stream")
	}
	for _, qi := range take(a.draws(0), 2000) {
		if qi < 0 || qi >= len(a.sqls) {
			t.Fatalf("draw %d outside the %d queries", qi, len(a.sqls))
		}
	}
	if !reflect.DeepEqual(a.appendBatch(3), b.appendBatch(3)) {
		t.Error("same seed: append batches differ")
	}
	if reflect.DeepEqual(a.appendBatch(3), c.appendBatch(3)) {
		t.Error("different seeds append the same batch")
	}
	if reflect.DeepEqual(a.appendBatch(0), a.appendBatch(1)) {
		t.Error("consecutive batches are the same lines")
	}
	if got := len(a.appendBatch(10_000)); got != appendLines {
		t.Errorf("batch past the end of the extra log has %d lines, want %d", got, appendLines)
	}
}

func TestDist(t *testing.T) {
	if d := newDist(nil); d.p(50) != 0 || tail(0) != 50 {
		t.Errorf("empty sample: p50=%v tail=%v", d.p(50), tail(0))
	}
	if d := newDist([]float64{7}); d.p(0) != 7 || d.p(50) != 7 || d.p(100) != 7 {
		t.Errorf("one sample: %v %v %v", d.p(0), d.p(50), d.p(100))
	}
	in := []float64{4, 1, 3, 2}
	d := newDist(in)
	if !reflect.DeepEqual(in, []float64{4, 1, 3, 2}) {
		t.Error("newDist sorted its argument in place")
	}
	if d.p(50) != 2.5 || d.min() != 1 || d.max() != 4 || d.p(25) != 1.75 {
		t.Errorf("p50=%v min=%v max=%v p25=%v", d.p(50), d.min(), d.max(), d.p(25))
	}
	for _, c := range []struct {
		n, tail int
	}{{9, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}} {
		if got := tail(c.n); got != c.tail {
			t.Errorf("n=%d: tail %v, want %v", c.n, got, c.tail)
		}
	}
	if mean(nil) != 0 || mean([]float64{1, 2, 6}) != 3 || median([]float64{9, 1, 5}) != 5 {
		t.Error("mean or median is off")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 100, Name: "root"},
		{ID: 2, Parent: 1, Start: 10, End: 40, Name: "nested"},
		{ID: 3, Parent: 2, Start: 15, End: 25, Name: "grandchild"},
		{ID: 4, Parent: 1, Start: 30, End: 60, Name: "overlaps 2"},
		{ID: 5, Parent: 1, Start: 90, End: 120, Name: "runs past its parent"},
		{ID: 6, Parent: 1, Start: 35, End: 38, Name: "inside 2 and 4"},
		{ID: 7, Start: 200, End: 210, Name: "childless"},
	}
	want := map[int]int64{
		1: 100 - (30 + 20 + 10), // 10..40, then 40..60 of the overlap, then 90..100
		2: 20, 3: 10, 4: 30, 5: 30, 6: 3, 7: 10,
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestRecorder(t *testing.T) {
	var none *recorder
	if id := none.begin(1, 0, "x"); id != 0 || none.len() != 0 {
		t.Error("a nil recorder recorded")
	}
	none.end(0)
	rec := newRecorder()
	a := rec.begin(1, 0, "a")
	b := rec.begin(1, a, "b")
	rec.end(b)
	rec.end(a)
	rec.end(0)
	spans := rec.since(0)
	if len(spans) != 2 || spans[1].Parent != a || spans[0].End < spans[1].End || spans[1].End < spans[1].Start {
		t.Errorf("spans %+v", spans)
	}
	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := rec.write(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []map[string]any
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"query", "id", "parent", "name", "start_ns", "end_ns"} {
		if _, ok := back[0][key]; !ok {
			t.Errorf("span file lacks %q", key)
		}
	}
}

func TestBenchmarkFileMatchesTheProgram(t *testing.T) {
	spec, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.checkAgainst(); err != nil {
		t.Fatal(err)
	}
	spec.EndToEnd[1].Name = "renamed"
	if err := spec.checkAgainst(); err == nil {
		t.Error("a renamed metric went unnoticed")
	}
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
	}
}

func TestVerdict(t *testing.T) {
	v := func(x, lo, hi float64) value { return value{Value: x, Spread: &[2]float64{lo, hi}} }
	for _, c := range []struct {
		old, new value
		better   string
		want     string
	}{
		{v(100, 99, 101), v(120, 119, 121), "lower", "worse"},
		{v(100, 99, 101), v(80, 79, 81), "lower", "better"},
		{v(100, 99, 101), v(120, 119, 121), "higher", "better"},
		{v(100, 99, 101), v(80, 79, 81), "higher", "worse"},
		{v(100, 99, 101), v(105, 104, 106), "lower", "same"},
		{v(100, 90, 110), v(150, 149, 151), "lower", "unresolved"},
		{v(100, 99, 101), v(150, 130, 170), "higher", "unresolved"},
		{value{Value: 100}, value{Value: 150}, "lower", "worse"},
	} {
		if got := verdict(c.old, c.new, c.better, 0.1); got != c.want {
			t.Errorf("%v -> %v (%s is better): %s, want %s", c.old.Value, c.new.Value, c.better, got, c.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, qps, failed float64, metric string) string {
		r := result{Workloads: map[string]*workloadResult{"hv_scan": {
			Attempted: 100, Failed: int(failed),
			EndToEnd: map[string]value{metric: {Value: qps, Unit: "1/s", Spread: &[2]float64{qps, qps}}},
		}}}
		raw, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json", 60, 0, "queries_per_s")
	for _, c := range []struct {
		name    string
		new     string
		wantErr string
		wantOut string
	}{
		{"faster", write("a.json", 80, 0, "queries_per_s"), "", "queries_per_s 80/60=1.333 better"},
		{"within the bound", write("b.json", 61, 0, "queries_per_s"), "", "same"},
		{"slower", write("c.json", 40, 0, "queries_per_s"), "worse: hv_scan queries_per_s", "worse"},
		{"more failures", write("d.json", 60, 3, "queries_per_s"), "worse: hv_scan failed", "failed 0/100 -> 3/100"},
		{"unknown metric", write("e.json", 60, 0, "queries_per_fortnight"), "unknown end-to-end metric", ""},
	} {
		var out bytes.Buffer
		err := compareFiles("../BENCHMARK.json", []string{base, c.new}, &out)
		if (err == nil) != (c.wantErr == "") || (err != nil && !strings.Contains(err.Error(), c.wantErr)) {
			t.Errorf("%s: error %v, want %q", c.name, err, c.wantErr)
		}
		if !strings.Contains(out.String(), c.wantOut) {
			t.Errorf("%s: output %q lacks %q", c.name, out.String(), c.wantOut)
		}
	}
	if err := compareFiles("../BENCHMARK.json", []string{base}, &bytes.Buffer{}); err == nil {
		t.Error("one file compared")
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	if _, err := workloadByName("served_lukewarm"); err == nil {
		t.Error("unknown workload accepted")
	}
	if err := run(options{workload: "served_lukewarm", seconds: 1, trace: "0", quick: true, spec: "../BENCHMARK.json"}); err == nil {
		t.Error("run accepted an unknown workload")
	}
	if err := run(options{workload: "hv_scan", seconds: 1, trace: "2", quick: true, spec: "../BENCHMARK.json"}); err == nil {
		t.Error("run accepted -trace 2")
	}
}

// TestProbesLeaveNoTrace is the purity check: a pass whose every query is
// replayed layer by layer must end in the state an untraced pass ends in.
func TestProbesLeaveNoTrace(t *testing.T) {
	in := quickInputs(t, 11)
	w, _ := workloadByName("analyst_seq")
	rn, err := newRunner(w, in, newRecorder())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := rn.passRound(time.Millisecond, untraced)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := rn.passRound(time.Millisecond, probed)
	if err != nil {
		t.Fatal(err)
	}
	for _, rd := range []*round{plain, traced} {
		if rd.failed != 0 {
			t.Fatalf("round failed its gate: %v", rd.problems)
		}
	}
	if plain.digest != traced.digest || plain.tti32 != traced.tti32 || plain.digest != rn.refDigest {
		t.Errorf("untraced pass ends at %x (TTI %v), probed pass at %x (TTI %v), untouched run at %x",
			plain.digest, plain.tti32, traced.digest, traced.tti32, rn.refDigest)
	}
	if len(traced.probes) != len(in.sqls) || traced.dwSkip != 0 {
		t.Errorf("%d queries probed, %d DW replays skipped", len(traced.probes), traced.dwSkip)
	}
	names := durations(traced.spans)
	for _, name := range []string{"query", "probe", "sqlparser.parse", "logical.build", "optimizer.choose", "hv.compute", "storage.checksum", "multistore.run", "dw.execute", "core.reorganize"} {
		if len(names[name]) == 0 {
			t.Errorf("no %s span recorded", name)
		}
	}
}

func TestOracleGateCatchesATamperedAnswer(t *testing.T) {
	in := quickInputs(t, 11)
	w, _ := workloadByName("analyst_seq")
	sys := w.newSystem(mustCatalog(t, in))
	var answers []answer
	for qi, sql := range in.sqls[:4] {
		rep, err := sys.Run(sql)
		if err != nil {
			t.Fatal(err)
		}
		answers = append(answers, answer{qi, rep.Result})
	}
	rd := &round{}
	rd.verify(answers, in.oracle)
	if rd.failed != 0 {
		t.Fatalf("honest answers rejected: %v", rd.problems)
	}
	answers[1].table, answers[2].table = answers[2].table, answers[1].table
	rd.verify(answers, in.oracle)
	if rd.failed != 2 || len(rd.problems) != 2 {
		t.Errorf("two swapped answers: %d failures, problems %v", rd.failed, rd.problems)
	}
}

func mustCatalog(t *testing.T, in *inputs) *storage.Catalog {
	t.Helper()
	cat, err := in.catalog()
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

// TestQuickRunOfEveryWorkload is the smoke run: small data, one short round
// per workload, untraced and traced, every gate on.
func TestQuickRunOfEveryWorkload(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "results.json")
	if err := run(options{workload: "all", seed: 3, seconds: 0.3, trace: "both", quick: true, out: out, traceDir: dir, spec: "../BENCHMARK.json"}); err != nil {
		t.Fatal(err)
	}
	res, err := readResult(out)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		r := res.Workloads[w.name]
		if r == nil || !r.Correct || r.Attempted == 0 {
			t.Fatalf("%s: %+v", w.name, r)
		}
		for _, m := range endToEnd {
			if v, ok := r.EndToEnd[m.name]; !ok || v.Value <= 0 || v.Unit != m.unit {
				t.Errorf("%s %s: %+v", w.name, m.name, v)
			}
		}
		if len(r.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", w.name, len(r.PerLayer), len(perLayer))
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
	}
	if hit := res.Workloads["served_hot"].PerLayer["mqo.hit_frac"].Value; hit <= 0 {
		t.Errorf("served_hot hit no cache: mqo.hit_frac %v", hit)
	}
	if hit := res.Workloads["served_cold"].PerLayer["mqo.hit_frac"].Value; hit != 0 {
		t.Errorf("served_cold has the reuse plane off, yet mqo.hit_frac is %v", hit)
	}
	if recs := res.Workloads["served_ingest"].PerLayer["durability.wal_records"].Value; recs <= 0 {
		t.Errorf("served_ingest journaled nothing: %v", recs)
	}
}
