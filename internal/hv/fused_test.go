package hv_test

import (
	"context"
	"runtime"
	"testing"

	"miso/internal/data"
	"miso/internal/hv"
	"miso/internal/logical"
	"miso/internal/optimizer"
	"miso/internal/stats"
	"miso/internal/storage"
	"miso/internal/workload"
)

// TestFusedExecutionBooksWhatNodeByNodeBooks runs the 32 workload queries
// in order through two HV stores that share nothing but the logs — one
// computing with BeginExecute, one with the node-by-node driver that builds
// every intermediate — each query rewritten over the views its own store has
// captured so far. The stores must never diverge: same answer, same
// simulated seconds and stage count, same captured views, and the same
// (Rows, Bytes) recorded in the estimator for every node's signature.
func TestFusedExecutionBooksWhatNodeByNodeBooks(t *testing.T) {
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	type side struct {
		est   *stats.Estimator
		store *hv.Store
		begin func(context.Context, *logical.Node) (*hv.Pending, error)
	}
	newSide := func(nodeByNode bool) *side {
		s := &side{est: stats.NewEstimator(cat)}
		s.store = hv.NewStore(cat, s.est, 0)
		s.begin = s.store.BeginExecute
		if nodeByNode {
			s.begin = s.store.BeginExecuteNodeByNode
		}
		return s
	}
	fused, oracle := newSide(false), newSide(true)
	builder := logical.NewBuilder(cat)
	ctx := context.Background()
	for seq, q := range workload.Evolving() {
		raw := build(t, builder, q.SQL)
		var results [2]*hv.Result
		var plans [2]*logical.Node
		for i, s := range []*side{fused, oracle} {
			plans[i] = optimizer.RewriteWithViews(raw, s.store.Views)
			p, err := s.begin(ctx, plans[i])
			if err != nil {
				t.Fatalf("%s side %d: %v", q.Name, i, err)
			}
			if results[i], err = p.Commit(ctx, seq+1); err != nil {
				t.Fatalf("%s side %d: commit: %v", q.Name, i, err)
			}
		}
		got, want := results[0], results[1]
		if plans[0].Signature() != plans[1].Signature() {
			t.Fatalf("%s: the stores' views diverged: plans differ", q.Name)
		}
		if storage.ChecksumTable(got.Table) != storage.ChecksumTable(want.Table) {
			t.Errorf("%s: answers differ", q.Name)
		}
		if got.Seconds != want.Seconds || got.Stages != want.Stages {
			t.Errorf("%s: fused books %v s in %d stages, node by node %v s in %d",
				q.Name, got.Seconds, got.Stages, want.Seconds, want.Stages)
		}
		if len(got.NewViews) != len(want.NewViews) {
			t.Fatalf("%s: fused captured %d views, node by node %d", q.Name, len(got.NewViews), len(want.NewViews))
		}
		for i, v := range got.NewViews {
			w := want.NewViews[i]
			if v.Name != w.Name || v.SizeBytes() != w.SizeBytes() || v.Table.NumRows() != w.Table.NumRows() {
				t.Errorf("%s: captured view %d is %s (%d B), node by node %s (%d B)",
					q.Name, i, v.Name, v.SizeBytes(), w.Name, w.SizeBytes())
			}
		}
		// A recorded truth overrides the heuristics, so each node's estimate
		// reads what the run recorded for it.
		plans[0].Walk(func(n *logical.Node) {
			if g, w := fused.est.Estimate(n), oracle.est.Estimate(n); g != w {
				t.Errorf("%s: %s node estimated %+v fused, %+v node by node", q.Name, n.Kind, g, w)
			}
		})
	}
	if fused.store.Views.Len() == 0 || fused.store.Views.Len() != oracle.store.Views.Len() {
		t.Errorf("view sets: fused %d, node by node %d", fused.store.Views.Len(), oracle.store.Views.Len())
	}
}

// hvQueryFixture is A1v1 over the default (benchmark-scale) data: three
// Extracts, two of them under 3-day window filters that keep a few per
// cent of their log.
func hvQueryFixture(tb testing.TB) (*hv.Store, *logical.Node) {
	tb.Helper()
	cat, err := data.Generate(data.DefaultConfig())
	if err != nil {
		tb.Fatal(err)
	}
	q, _ := workload.ByName("A1v1")
	plan, err := logical.NewBuilder(cat).BuildSQL(q.SQL)
	if err != nil {
		tb.Fatal(err)
	}
	// Two workers: scan buffers are per worker, so pin what the allocation
	// guard measures.
	return hv.NewStore(cat, stats.NewEstimator(cat), 2), plan
}

// TestHVQueryAllocationBounded guards what fusing the map side bought: an
// HV query allocates for one set of scan buffers, which its three Extract
// passes share, and for its survivors — not for a table of every line it
// reads (about 14 MB for this query before) nor for a set of buffers per
// pass (3.17 MB). The limit is the measured 2.47 MB plus a quarter.
func TestHVQueryAllocationBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	store, plan := hvQueryFixture(t)
	ctx := context.Background()
	if _, err := store.BeginExecute(ctx, plan); err != nil { // warm: signatures, lazily built state
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := store.BeginExecute(ctx, plan); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	const limit = 2_472_000 * 5 / 4
	if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
		t.Errorf("A1v1 through BeginExecute allocated %d B, want < %d B", got, limit)
	} else {
		t.Logf("A1v1 through BeginExecute allocated %d B", got)
	}
}

// BenchmarkHVQuery is one HV query's compute phase at benchmark scale.
func BenchmarkHVQuery(b *testing.B) {
	store, plan := hvQueryFixture(b)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := store.BeginExecute(ctx, plan); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHVWorkload is the HV-ONLY baseline's compute: the 32 workload
// queries, each as its raw plan (no view exists), through BeginExecute at
// benchmark scale.
func BenchmarkHVWorkload(b *testing.B) {
	cat, err := data.Generate(data.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	builder := logical.NewBuilder(cat)
	var plans []*logical.Node
	for _, q := range workload.Evolving() {
		plan, err := builder.BuildSQL(q.SQL)
		if err != nil {
			b.Fatal(err)
		}
		plans = append(plans, plan)
	}
	store := hv.NewStore(cat, stats.NewEstimator(cat), 0)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, plan := range plans {
			if _, err := store.BeginExecute(ctx, plan); err != nil {
				b.Fatal(err)
			}
		}
	}
}
