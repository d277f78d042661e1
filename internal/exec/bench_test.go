package exec_test

import (
	"runtime"
	"testing"

	"miso/internal/data"
	"miso/internal/exec"
	"miso/internal/expr"
	"miso/internal/logical"
	"miso/internal/storage"
)

func benchEnv(b *testing.B) (*storage.Catalog, *exec.Env, *logical.Builder) {
	b.Helper()
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	env := &exec.Env{ReadLog: func(name string) (*storage.LogFile, error) { return cat.Log(name) }}
	return cat, env, logical.NewBuilder(cat)
}

func benchQuery(b *testing.B, sql string) {
	b.Helper()
	_, env, builder := benchEnv(b)
	plan, err := builder.BuildSQL(sql)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Run(plan, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOpExtract measures the SerDe path: JSON parsing plus field
// coercion over the whole tweets log.
func BenchmarkOpExtract(b *testing.B) {
	benchQuery(b, "SELECT tweet_id FROM tweets")
}

// BenchmarkOpExtractWithUDF adds a hoisted map-phase UDF to the SerDe pass.
func BenchmarkOpExtractWithUDF(b *testing.B) {
	benchQuery(b, "SELECT tweet_id, SENTIMENT(text) AS s FROM tweets")
}

// BenchmarkOpFilter measures predicate evaluation over the extracted rows.
func BenchmarkOpFilter(b *testing.B) {
	benchQuery(b, "SELECT tweet_id FROM tweets WHERE lang = 'en' AND retweets > 100")
}

// BenchmarkOpHashJoin measures the equi-join build/probe.
func BenchmarkOpHashJoin(b *testing.B) {
	benchQuery(b, "SELECT t.tweet_id FROM tweets t JOIN checkins c ON t.user_id = c.user_id")
}

// BenchmarkOpHashAggregate measures grouped aggregation with three
// aggregate states per group.
func BenchmarkOpHashAggregate(b *testing.B) {
	benchQuery(b, `SELECT lang, COUNT(*) AS n, AVG(retweets) AS ar, MAX(followers) AS mf
		FROM tweets GROUP BY lang`)
}

// BenchmarkOpSort measures the sort operator over the full log.
func BenchmarkOpSort(b *testing.B) {
	benchQuery(b, "SELECT tweet_id, retweets FROM tweets ORDER BY retweets DESC")
}

// BenchmarkOpDistinct measures row-level deduplication.
func BenchmarkOpDistinct(b *testing.B) {
	benchQuery(b, "SELECT DISTINCT user_id FROM tweets")
}

// columnarBenchInput builds a schema, a morsel of rows, and a compiled
// batch predicate (retweets > 100 AND lang = 'en') for the columnar kernel
// guards below.
func columnarBenchInput(tb testing.TB, n int) (*storage.Schema, []storage.Row, expr.BatchCompiled) {
	tb.Helper()
	schema, err := storage.NewSchema(
		storage.Column{Name: "retweets", Type: storage.KindInt},
		storage.Column{Name: "lang", Type: storage.KindString},
	)
	if err != nil {
		tb.Fatal(err)
	}
	langs := []string{"en", "es", "fr", "de"}
	rows := make([]storage.Row, n)
	for i := range rows {
		rows[i] = storage.Row{
			storage.IntValue(int64(i * 37 % 500)),
			storage.StringValue(langs[i%len(langs)]),
		}
	}
	pred, err := expr.CompileBatch(&expr.BinOp{
		Op: "AND",
		L:  &expr.BinOp{Op: ">", L: &expr.ColRef{Name: "retweets"}, R: &expr.Const{Val: storage.IntValue(100)}},
		R:  &expr.BinOp{Op: "=", L: &expr.ColRef{Name: "lang"}, R: &expr.Const{Val: storage.StringValue("en")}},
	}, schema)
	if err != nil {
		tb.Fatal(err)
	}
	return schema, rows, pred
}

// TestFilterSelectionZeroAlloc is the allocs/op guard for the columnar
// filter kernel: once the per-worker scratch (batch column vectors, the
// evaluator's result vector, the selection buffer) is warm, evaluating a
// predicate over a morsel and compacting survivors into a selection vector
// must not allocate — this is what keeps parallel Filter's allocs/op at
// the serial engine's level instead of the pre-columnar 4x regression.
func TestFilterSelectionZeroAlloc(t *testing.T) {
	schema, rows, pred := columnarBenchInput(t, 1024)
	batch := expr.NewBatch(schema)
	sel := make([]int32, 0, len(rows))
	run := func() int {
		batch.Reset(rows)
		vec := pred(batch, nil)
		return len(vec.TruesInto(sel[:0], 0))
	}
	survivors := run() // warm scratch before measuring
	if survivors == 0 || survivors == len(rows) {
		t.Fatalf("degenerate selectivity %d/%d", survivors, len(rows))
	}
	if allocs := testing.AllocsPerRun(1000, func() { run() }); allocs != 0 {
		t.Fatalf("filter selection allocated %.1f objects/op, want 0", allocs)
	}
}

// TestBatchHashZeroAlloc is the allocs/op guard for column-wise key
// hashing: chaining key vectors through Vector.HashChainInto over a reused
// hash buffer must not allocate (this is the join/aggregate partitioning
// hot loop).
func TestBatchHashZeroAlloc(t *testing.T) {
	_, rows, _ := columnarBenchInput(t, 1024)
	var rv, lv storage.Vector
	hs := make([]uint64, len(rows))
	run := func() {
		rv.FromRows(rows, 0, storage.KindInt)
		lv.FromRows(rows, 1, storage.KindString)
		for i := range hs {
			hs[i] = storage.HashSeed
		}
		rv.HashChainInto(hs)
		lv.HashChainInto(hs)
	}
	run() // warm the transpose vectors
	if allocs := testing.AllocsPerRun(1000, run); allocs != 0 {
		t.Fatalf("batch hash allocated %.1f objects/op, want 0", allocs)
	}
	if hs[0] == storage.HashSeed {
		t.Fatal("hash chain did not mix")
	}
}

// BenchmarkColumnarFilterSelection measures the fused filter kernel in
// isolation: batch transpose + predicate eval + selection compaction over
// one 1024-row morsel.
func BenchmarkColumnarFilterSelection(b *testing.B) {
	schema, rows, pred := columnarBenchInput(b, 1024)
	batch := expr.NewBatch(schema)
	sel := make([]int32, 0, len(rows))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch.Reset(rows)
		vec := pred(batch, nil)
		sel = vec.TruesInto(sel[:0], 0)
	}
	_ = sel
}

// BenchmarkColumnarBatchHash measures column-wise key hashing over one
// 1024-row morsel (two key columns: int + string).
func BenchmarkColumnarBatchHash(b *testing.B) {
	_, rows, _ := columnarBenchInput(b, 1024)
	var rv, lv storage.Vector
	hs := make([]uint64, len(rows))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rv.FromRows(rows, 0, storage.KindInt)
		lv.FromRows(rows, 1, storage.KindString)
		for j := range hs {
			hs[j] = storage.HashSeed
		}
		rv.HashChainInto(hs)
		lv.HashChainInto(hs)
	}
}

// BenchmarkThreeWayJoinAggregate is the workload's characteristic shape:
// extract x3, join x2, aggregate, sort.
func BenchmarkThreeWayJoinAggregate(b *testing.B) {
	benchQuery(b, `SELECT l.city, COUNT(*) AS n
		FROM tweets t
		JOIN checkins c ON t.user_id = c.user_id
		JOIN landmarks l ON c.venue_id = l.venue_id
		WHERE t.lang = 'en'
		GROUP BY l.city ORDER BY n DESC`)
}

// BenchmarkExtractFilter is an HV job's map side where the work is: the
// 20 000-line tweets log scanned under analyst A1's 3-day window, which
// keeps about 3 % of it.
func BenchmarkExtractFilter(b *testing.B) {
	cat, err := data.Generate(data.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	env := &exec.Env{ReadLog: func(name string) (*storage.LogFile, error) { return cat.Log(name) }}
	plan, err := logical.NewBuilder(cat).BuildSQL(`SELECT tweet_id, user_id, text FROM tweets
		WHERE lang = 'en' AND ts >= 1357257600 AND ts < 1357516800`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Run(plan, env); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExtractFilterCheckins is BenchmarkExtractFilter's float-heavy
// twin: the checkins log carries two 17-digit float literals a line (lat,
// lon) that the window filter does not read and 97 % of lines never need.
func BenchmarkExtractFilterCheckins(b *testing.B) {
	cat, err := data.Generate(data.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	env := &exec.Env{ReadLog: func(name string) (*storage.LogFile, error) { return cat.Log(name) }}
	plan, err := logical.NewBuilder(cat).BuildSQL(`SELECT checkin_id, user_id, lat, lon FROM checkins
		WHERE ts >= 1357257600 AND ts < 1357516800`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.Run(plan, env); err != nil {
			b.Fatal(err)
		}
	}
}

// smallViewPlanCeilings are TestSmallViewPlanAllocs' per-run ceilings, about
// 20 % over the measured cost of each smallViewPlans plan.
var smallViewPlanCeilings = []struct {
	name          string
	allocs, bytes float64
}{
	{"agg", 193, 13900},
	{"join", 151, 22000},
}

// TestSmallViewPlanAllocs is the allocation guard for the small-input path:
// DW's typical execution, a plan over views of a few dozen rows, must not
// pay the scratch a full morsel or a worker pool needs. It counts at the
// process's GOMAXPROCS, so pool start-up is counted wherever it happens.
func TestSmallViewPlanAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not asserted under the race detector")
	}
	plans, env := smallViewPlans(t)
	for i, c := range smallViewPlanCeilings {
		plan := plans[i]
		run := func() {
			if _, err := exec.Run(plan, env); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm
		const runs = 200
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for j := 0; j < runs; j++ {
			run()
		}
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs-before.Mallocs) / runs
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%s: %.1f allocs, %.0f B per run", c.name, allocs, bytes)
		if allocs > c.allocs || bytes > c.bytes {
			t.Errorf("%s: %.1f allocs and %.0f B per run, ceilings %.0f and %.0f", c.name, allocs, bytes, c.allocs, c.bytes)
		}
	}
}

// BenchmarkSmallViewPlan measures the two smallViewPlans plans: what DW
// pays per execution once the tuner has placed small views there.
func BenchmarkSmallViewPlan(b *testing.B) {
	plans, env := smallViewPlans(b)
	for i, c := range smallViewPlanCeilings {
		plan := plans[i]
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for j := 0; j < b.N; j++ {
				if _, err := exec.Run(plan, env); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
