package stats_test

import (
	"context"
	"strings"
	"testing"

	"miso/internal/data"
	"miso/internal/exec"
	"miso/internal/expr"
	"miso/internal/hv"
	"miso/internal/logical"
	"miso/internal/optimizer"
	"miso/internal/stats"
	"miso/internal/storage"
	"miso/internal/workload"
)

func setup(t *testing.T) (*storage.Catalog, *logical.Builder, *stats.Estimator, *exec.Env) {
	t.Helper()
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	env := &exec.Env{ReadLog: func(name string) (*storage.LogFile, error) { return cat.Log(name) }}
	return cat, logical.NewBuilder(cat), stats.NewEstimator(cat), env
}

func TestEstimateBaseExtract(t *testing.T) {
	cat, b, est, _ := setup(t)
	plan, err := b.BuildSQL("SELECT tweet_id FROM tweets")
	if err != nil {
		t.Fatal(err)
	}
	var extract *logical.Node
	plan.Walk(func(n *logical.Node) {
		if n.Kind == logical.KindExtract {
			extract = n
		}
	})
	s := est.Estimate(extract)
	log, _ := cat.Log(data.TweetsLog)
	if s.Rows != int64(log.NumLines()) {
		t.Errorf("rows = %d, want %d", s.Rows, log.NumLines())
	}
	if s.Bytes <= 0 || s.Bytes > log.LogicalBytes() {
		t.Errorf("bytes = %d vs log %d", s.Bytes, log.LogicalBytes())
	}
}

func TestEstimateFilterShrinks(t *testing.T) {
	_, b, est, _ := setup(t)
	all, _ := b.BuildSQL("SELECT tweet_id FROM tweets")
	filtered, _ := b.BuildSQL("SELECT tweet_id FROM tweets WHERE lang = 'en' AND retweets > 10")
	sAll := est.Estimate(all)
	sF := est.Estimate(filtered)
	if sF.Rows >= sAll.Rows || sF.Bytes >= sAll.Bytes {
		t.Errorf("filter estimate did not shrink: %+v vs %+v", sF, sAll)
	}
}

func TestEstimateAggregateShrinks(t *testing.T) {
	_, b, est, _ := setup(t)
	plan, _ := b.BuildSQL("SELECT lang, COUNT(*) AS n FROM tweets GROUP BY lang")
	agg := plan.Child(0)
	sa := est.Estimate(agg)
	sc := est.Estimate(agg.Child(0))
	if sa.Rows >= sc.Rows {
		t.Errorf("aggregate rows %d not below input %d", sa.Rows, sc.Rows)
	}
	global, _ := b.BuildSQL("SELECT COUNT(*) AS n FROM tweets")
	if s := est.Estimate(global.Child(0)); s.Rows != 1 {
		t.Errorf("global aggregate rows = %d", s.Rows)
	}
}

func TestFeedbackOverridesHeuristics(t *testing.T) {
	_, b, est, env := setup(t)
	plan, _ := b.BuildSQL("SELECT tweet_id FROM tweets WHERE lang = 'ja'")
	before := est.Estimate(plan)
	table, err := exec.Run(plan, env)
	if err != nil {
		t.Fatal(err)
	}
	est.Record(plan, stats.Stat{Rows: int64(table.NumRows()), Bytes: table.LogicalBytes()})
	after := est.Estimate(plan)
	if after.Rows != int64(table.NumRows()) {
		t.Errorf("recorded truth ignored: %d vs %d", after.Rows, table.NumRows())
	}
	if !est.Recorded(plan.ID()) {
		t.Error("no record after Record")
	}
	_ = before
}

// TestInvalidateLogDropsWhatTheSignaturePredicateDropped warms an estimator
// the way the system does — the 32 paper queries in order through an HV
// store, each rewritten over the views captured so far, so the cache holds
// raw subtrees, subtrees over views and the views' own records — and holds
// InvalidateLog to the predicate it replaced: drop exactly the entries whose
// signature contains scan(<log>).
func TestInvalidateLogDropsWhatTheSignaturePredicateDropped(t *testing.T) {
	cat, b, est, _ := setup(t)
	store := hv.NewStore(cat, est, 0)
	sigs := map[uint64]string{} // every id the warm-up can have recorded
	for seq, sql := range workload.SQLs() {
		raw, err := b.BuildSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		plan := optimizer.RewriteWithViews(raw, store.Views)
		if _, err := store.ExecuteContext(context.Background(), plan, seq+1); err != nil {
			t.Fatal(err)
		}
		plan.Walk(func(n *logical.Node) { sigs[n.ID()] = n.Signature() })
	}
	for _, v := range store.Views.All() {
		vs := logical.NewViewScan(v.Name, nil)
		sigs[vs.ID()] = vs.Signature()
	}
	recorded, held := map[uint64]bool{}, 0
	for id := range sigs {
		if recorded[id] = est.Recorded(id); recorded[id] {
			held++
		}
	}
	if held != est.Len() {
		t.Fatalf("the estimator holds %d entries, the warm-up named %d of them", est.Len(), held)
	}
	oracle := func(sig string) bool { return strings.Contains(sig, "scan(tweets)") }
	want := 0
	for id, sig := range sigs {
		if recorded[id] && oracle(sig) {
			want++
		}
	}
	if want == 0 || want == est.Len() {
		t.Fatalf("%d of %d entries scan tweets: the check is vacuous", want, est.Len())
	}
	if got := est.InvalidateLog("tweets"); got != want {
		t.Errorf("InvalidateLog dropped %d entries, the signature predicate %d", got, want)
	}
	for id, sig := range sigs {
		if got := est.Recorded(id); got != (recorded[id] && !oracle(sig)) {
			t.Errorf("recorded after invalidation = %v: %s", got, sig)
		}
	}
}

// TestVersionMovesOnlyWhenTheCacheChanges: a new stat, a different stat and
// every invalidation move the version — an invalidation follows a change to
// the log's content, whose size base estimates read, whether or not it
// drops a stat; recording the held stat again does not.
func TestVersionMovesOnlyWhenTheCacheChanges(t *testing.T) {
	_, b, est, _ := setup(t)
	plan, err := b.BuildSQL("SELECT tweet_id FROM tweets WHERE lang = 'ja'")
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name  string
		write func()
		moves bool
	}{
		{"first record", func() { est.Record(plan, stats.Stat{Rows: 3, Bytes: 30}) }, true},
		{"the same stat again", func() { est.Record(plan, stats.Stat{Rows: 3, Bytes: 30}) }, false},
		{"a different stat", func() { est.Record(plan, stats.Stat{Rows: 4, Bytes: 30}) }, true},
		{"invalidating another log", func() { est.InvalidateLog("checkins") }, true},
		{"invalidating its log", func() { est.InvalidateLog("tweets") }, true},
		{"invalidating it again", func() { est.InvalidateLog("tweets") }, true},
		{"recording it afresh", func() { est.Record(plan, stats.Stat{Rows: 4, Bytes: 30}) }, true},
	}
	for _, s := range steps {
		before := est.Version()
		s.write()
		if moved := est.Version() != before; moved != s.moves {
			t.Errorf("%s: version moved = %v, want %v", s.name, moved, s.moves)
		}
	}
}

func TestRecordView(t *testing.T) {
	_, _, est, _ := setup(t)
	est.RecordView("v_test", stats.Stat{Rows: 5, Bytes: 500})
	vs := logical.NewViewScan("v_test", storage.MustSchema(
		storage.Column{Name: "x", Type: storage.KindInt}))
	s := est.Estimate(vs)
	if s.Rows != 5 || s.Bytes != 500 {
		t.Errorf("viewscan estimate = %+v", s)
	}
}

func TestSelectivityHeuristics(t *testing.T) {
	a := &expr.ColRef{Name: "a"}
	one := &expr.Const{Val: storage.IntValue(1)}
	eq := &expr.BinOp{Op: "=", L: a, R: one}
	lt := &expr.BinOp{Op: "<", L: a, R: one}
	cases := []struct {
		e        expr.Expr
		min, max float64
	}{
		{eq, 0.05, 0.2},
		{lt, 0.2, 0.5},
		{&expr.BinOp{Op: "AND", L: eq, R: lt}, 0.01, 0.1},
		{&expr.BinOp{Op: "OR", L: eq, R: lt}, 0.3, 0.6},
		{&expr.Not{E: eq}, 0.8, 1.0},
		{&expr.In{E: a, Items: []expr.Expr{one, one}}, 0.1, 0.3},
		{&expr.IsNull{E: a}, 0.0, 0.1},
		{&expr.IsNull{E: a, Neg: true}, 0.9, 1.0},
	}
	for _, c := range cases {
		got := stats.Selectivity(c.e)
		if got < c.min || got > c.max {
			t.Errorf("Selectivity(%s) = %.3f outside [%.2f, %.2f]", c.e.Canon(), got, c.min, c.max)
		}
	}
	// AND of two must never exceed either side.
	and := &expr.BinOp{Op: "AND", L: eq, R: eq}
	if stats.Selectivity(and) > stats.Selectivity(eq) {
		t.Error("AND selectivity exceeds conjunct")
	}
}

func TestEstimateJoinNotBelowInputs(t *testing.T) {
	_, b, est, _ := setup(t)
	plan, _ := b.BuildSQL(`SELECT t.tweet_id FROM tweets t JOIN checkins c ON t.user_id = c.user_id`)
	var join *logical.Node
	plan.Walk(func(n *logical.Node) {
		if n.Kind == logical.KindJoin {
			join = n
		}
	})
	sj := est.Estimate(join)
	l := est.Estimate(join.Child(0))
	r := est.Estimate(join.Child(1))
	maxIn := l.Rows
	if r.Rows > maxIn {
		maxIn = r.Rows
	}
	if sj.Rows < maxIn {
		t.Errorf("join estimate %d below larger input %d (FK heuristic)", sj.Rows, maxIn)
	}
}
