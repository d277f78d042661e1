package hv_test

import (
	"context"
	"errors"
	"testing"

	"miso/internal/data"
	"miso/internal/faults"
	"miso/internal/hv"
	"miso/internal/logical"
	"miso/internal/stats"
	"miso/internal/storage"
)

func setup(t *testing.T) (*storage.Catalog, *logical.Builder, *hv.Store) {
	t.Helper()
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	est := stats.NewEstimator(cat)
	return cat, logical.NewBuilder(cat), hv.NewStore(cat, est, 0)
}

func build(t *testing.T, b *logical.Builder, sql string) *logical.Node {
	t.Helper()
	n, err := b.BuildSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestMaterializedNodesBoundaries(t *testing.T) {
	_, b, _ := setup(t)
	plan := build(t, b, `SELECT l.city, COUNT(*) AS n FROM checkins c
		JOIN landmarks l ON c.venue_id = l.venue_id
		WHERE c.category = 'bar' GROUP BY l.city ORDER BY n DESC`)
	mat := hv.MaterializedNodes(plan)
	// Root, sort, aggregate, join, and both join inputs are materialized.
	counts := map[logical.Kind]int{}
	for n := range mat {
		counts[n.Kind]++
	}
	if counts[logical.KindJoin] != 1 || counts[logical.KindAggregate] != 1 ||
		counts[logical.KindSort] != 1 {
		t.Errorf("boundary counts = %v", counts)
	}
	// The join's map-phase inputs materialize too.
	if counts[logical.KindFilter]+counts[logical.KindExtract] < 2 {
		t.Errorf("join inputs not materialized: %v", counts)
	}
}

func TestExecuteCreatesOpportunisticViews(t *testing.T) {
	_, b, store := setup(t)
	plan := build(t, b, `SELECT lang, COUNT(*) AS n FROM tweets
		WHERE retweets > 50 GROUP BY lang`)
	res, err := store.ExecuteContext(context.Background(), plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds <= 0 || res.Stages < 2 {
		t.Errorf("seconds=%.1f stages=%d", res.Seconds, res.Stages)
	}
	if len(res.NewViews) == 0 {
		t.Fatal("no opportunistic views created")
	}
	if store.Views.Len() != len(res.NewViews) {
		t.Errorf("store has %d views, result reports %d", store.Views.Len(), len(res.NewViews))
	}
	// Re-executing the identical plan creates nothing new.
	res2, err := store.ExecuteContext(context.Background(), plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res2.NewViews) != 0 {
		t.Errorf("re-execution created %d views", len(res2.NewViews))
	}
}

func TestViewDefsAreRawAndNormalized(t *testing.T) {
	_, b, store := setup(t)
	plan := build(t, b, "SELECT lang, COUNT(*) AS n FROM tweets WHERE retweets > 50 GROUP BY lang")
	if _, err := store.ExecuteContext(context.Background(), plan, 1); err != nil {
		t.Fatal(err)
	}
	// Every view definition must be in base-data terms (no ViewScans) and
	// normalized (no stacked filters, no identity projections).
	for _, v := range store.Views.All() {
		v.Def.Walk(func(n *logical.Node) {
			if n.Kind == logical.KindViewScan {
				t.Errorf("view %s def contains a ViewScan", v.Name)
			}
			if n.Kind == logical.KindFilter && n.Child(0).Kind == logical.KindFilter {
				t.Errorf("view %s def has stacked filters", v.Name)
			}
		})
	}
}

func TestCostPlanTracksExecution(t *testing.T) {
	_, b, store := setup(t)
	cheap := build(t, b, "SELECT tweet_id FROM tweets WHERE lang = 'en'")
	costly := build(t, b, `SELECT t.lang, COUNT(*) AS n FROM tweets t
		JOIN checkins c ON t.user_id = c.user_id GROUP BY t.lang`)
	if store.CostPlan(cheap) >= store.CostPlan(costly) {
		t.Error("single-extract plan estimated costlier than the join plan")
	}
	// After execution, the estimate uses observed sizes and the real cost
	// equals the re-estimated cost for the same plan.
	res, err := store.ExecuteContext(context.Background(), cheap, 1)
	if err != nil {
		t.Fatal(err)
	}
	re := store.CostPlan(cheap)
	if diff := re - res.Seconds; diff > 1 || diff < -1 {
		t.Errorf("post-hoc estimate %.1f vs actual %.1f", re, res.Seconds)
	}
}

func TestExpandViewsRestoresRawDefinition(t *testing.T) {
	_, b, store := setup(t)
	// The aggregate's map-phase input (the wide filtered extract) is one
	// of the materialized stages, so it becomes a reusable view.
	v1 := build(t, b, "SELECT lang, COUNT(*) AS n FROM tweets WHERE lang = 'en' GROUP BY lang")
	if _, err := store.ExecuteContext(context.Background(), v1, 1); err != nil {
		t.Fatal(err)
	}
	// Rewrite a refined query against the store's views, then expand.
	refined := build(t, b, "SELECT tweet_id FROM tweets WHERE lang = 'en' AND retweets > 100")
	core := refined.Child(0)
	m, ok := store.Views.BestMatch(core)
	if !ok {
		t.Fatal("no view match")
	}
	rw, err := m.Rewrite()
	if err != nil {
		t.Fatal(err)
	}
	expanded := store.ExpandViews(rw)
	if expanded == nil {
		t.Fatal("expansion failed")
	}
	if expanded.Signature() != core.Signature() {
		t.Errorf("expanded signature differs:\n%s\n%s", expanded.Signature(), core.Signature())
	}
}

// spliceCopy is the reference expansion: every node of the plan and of each
// spliced definition copied, to be normalized afterwards. ExpandViews, which
// copies only inside Normalize, must agree with it.
func spliceCopy(n *logical.Node, store *hv.Store) *logical.Node {
	if n.Kind == logical.KindViewScan {
		v, _ := store.Views.Get(n.ViewName)
		n = v.Def
	}
	kids := make([]*logical.Node, len(n.Children))
	for i, ch := range n.Children {
		kids[i] = spliceCopy(ch, store)
	}
	return n.WithChildren(kids)
}

// TestExpandViewsSelfJoinIsATree: a plan that reads one view on both sides
// of a join splices the one shared definition twice, and still expands
// into a tree — MaterializedNodes and exec.RunPlan key on node pointers —
// with the signature the copying expansion gave it.
func TestExpandViewsSelfJoinIsATree(t *testing.T) {
	_, b, store := setup(t)
	plan := build(t, b, `SELECT a.tweet_id FROM tweets a JOIN checkins c ON a.user_id = c.user_id
		WHERE a.lang = 'en'`)
	if _, err := store.ExecuteContext(context.Background(), plan, 1); err != nil {
		t.Fatal(err)
	}
	var join *logical.Node
	plan.Walk(func(n *logical.Node) {
		if n.Kind == logical.KindJoin {
			join = n
		}
	})
	if join == nil {
		t.Fatal("plan has no join")
	}
	// The join's left input, captured as a view, joined with itself: raw
	// reads the input subtree twice, rw reads its view twice.
	m, ok := store.Views.BestMatch(join.Child(0))
	if !ok || !m.Exact {
		t.Fatal("join input not captured as a view")
	}
	selfJoin := func(l, r *logical.Node) *logical.Node {
		n := *join
		n.RightKeys, n.Children = join.LeftKeys, []*logical.Node{l, r}
		return logical.NewNode(n, join.Schema())
	}
	raw := selfJoin(join.Child(0), join.Child(0))
	var scans [2]*logical.Node
	for i := range scans {
		if scans[i], _ = m.Rewrite(); scans[i].Kind != logical.KindViewScan {
			t.Fatalf("join input rewrote to %v", scans[i].Kind)
		}
	}
	rw := selfJoin(scans[0], scans[1])
	expanded := store.ExpandViews(rw)
	if expanded == nil {
		t.Fatal("expansion failed")
	}
	seen := map[*logical.Node]bool{}
	expanded.Walk(func(n *logical.Node) {
		if seen[n] {
			t.Fatalf("node %s appears twice in the expansion", n.Signature())
		}
		seen[n] = true
	})
	if want := logical.Normalize(spliceCopy(rw, store)).Signature(); expanded.Signature() != want {
		t.Errorf("expanded signature differs from the copying expansion:\n%s\n%s", expanded.Signature(), want)
	}
	if expanded.Signature() != raw.Signature() {
		t.Errorf("expanded signature differs from the raw self-join:\n%s\n%s", expanded.Signature(), raw.Signature())
	}
}

func TestExecuteFaultFreeWithInjectorArmedButZeroRate(t *testing.T) {
	_, b, store := setup(t)
	plan := build(t, b, `SELECT lang, COUNT(*) AS n FROM tweets GROUP BY lang`)
	base, err := store.ExecuteContext(context.Background(), plan, 1)
	if err != nil {
		t.Fatal(err)
	}
	// A zero-rate profile yields a nil injector: strictly additive plane.
	store.SetFaults(faults.NewInjector(faults.Profile{}, 1), faults.DefaultRetry())
	again, err := store.ExecuteContext(context.Background(), plan, 2)
	if err != nil {
		t.Fatal(err)
	}
	if again.Seconds != base.Seconds {
		t.Errorf("zero-rate injector changed timing: base %v, again %v", base.Seconds, again.Seconds)
	}
	if again.RecoverySeconds != 0 || again.Retries != 0 {
		t.Errorf("zero-rate injector charged recovery: %+v", again)
	}
}

func TestExecuteRetriesChargeRecovery(t *testing.T) {
	_, b, store := setup(t)
	store.SetFaults(faults.NewInjector(faults.Profile{HVStage: 0.5, HDFSWrite: 0.3}, 42), faults.DefaultRetry())
	plan := build(t, b, `SELECT l.city, COUNT(*) AS n FROM checkins c
		JOIN landmarks l ON c.venue_id = l.venue_id GROUP BY l.city`)
	var sawRetry bool
	for seq := 1; seq <= 10; seq++ {
		res, err := store.ExecuteContext(context.Background(), plan, seq)
		if err != nil {
			// Exhaustion is possible at 50% rate; it must be typed.
			if !errors.Is(err, faults.ErrExhausted) {
				t.Fatalf("execution error not a typed fault: %v", err)
			}
			continue
		}
		if res.Retries > 0 {
			sawRetry = true
			if res.RecoverySeconds <= 0 {
				t.Error("retries charged no recovery time")
			}
			// Recovery restarts from the failed stage, never the whole
			// plan: each wasted attempt costs at most one stage plus
			// backoff, so recovery stays bounded by retries * (full
			// execution + max backoff).
			bound := float64(res.Retries) * (res.Seconds + 60)
			if res.RecoverySeconds > bound {
				t.Errorf("recovery %v exceeds per-stage bound %v", res.RecoverySeconds, bound)
			}
		}
	}
	if !sawRetry {
		t.Error("no execution recorded a survived retry at 50% stage failure rate")
	}
}

func TestExecuteFaultsDeterministic(t *testing.T) {
	run := func() []float64 {
		_, b, store := setup(t)
		store.SetFaults(faults.NewInjector(faults.Uniform(0.2), 7), faults.DefaultRetry())
		plan := build(t, b, `SELECT lang, COUNT(*) AS n FROM tweets WHERE retweets > 50 GROUP BY lang`)
		var out []float64
		for seq := 1; seq <= 5; seq++ {
			res, err := store.ExecuteContext(context.Background(), plan, seq)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, res.RecoverySeconds)
		}
		return out
	}
	a, bb := run(), run()
	for i := range a {
		if a[i] != bb[i] {
			t.Fatalf("run %d recovery differs: %v vs %v", i, a[i], bb[i])
		}
	}
}

func TestEnvViewMissingIsTyped(t *testing.T) {
	_, _, store := setup(t)
	_, err := store.Env().ReadView("nope")
	if !errors.Is(err, hv.ErrViewMissing) {
		t.Errorf("missing-view error not typed: %v", err)
	}
}
