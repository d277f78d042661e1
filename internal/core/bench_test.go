package core

import (
	"context"
	"testing"

	"miso/internal/data"
	"miso/internal/dw"
	"miso/internal/history"
	"miso/internal/hv"
	"miso/internal/logical"
	"miso/internal/optimizer"
	"miso/internal/stats"
	"miso/internal/workload"
)

// benchTunerSetup executes a 6-query evolving window in HV so its
// opportunistic views form a realistic candidate universe (33 views under
// data.SmallConfig), and returns everything a Tune call needs.
func benchTunerSetup(b testing.TB) (Config, *optimizer.Optimizer, *history.Window, optimizer.Design) {
	b.Helper()
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	est := stats.NewEstimator(cat)
	h := hv.NewStore(cat, est, 0)
	d := dw.NewStore(est, 0)
	opt := optimizer.New(h, d, est)
	builder := logical.NewBuilder(cat)
	win := history.NewWindow(6, 3, 0.5)
	for i, q := range workload.Evolving()[:6] {
		plan, err := builder.BuildSQL(q.SQL)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := h.ExecuteContext(context.Background(), plan, i); err != nil {
			b.Fatal(err)
		}
		win.Add(history.Entry{Seq: i, SQL: q.SQL, Plan: plan})
	}
	var cfg Config
	base := cat.TotalLogicalBytes()
	cfg.Bh, cfg.Bd, cfg.Bt = 2*base, 2*base/10, 10<<30
	cur := optimizer.Design{HV: h.Views, DW: d.Views}
	return cfg, opt, win, cur
}

// BenchmarkTunerReorganization measures one full reorganization decision —
// the probe table, interactions, sparsification, and both knapsacks — over
// a 6-query window with a realistic view universe. The paper's claim is that
// tuning is lightweight relative to query execution; this quantifies the
// computational side of that claim (`-cpu 1,2` gives the serial and the
// fanned-out table), and checks the measured decision against the committed
// golden.
func BenchmarkTunerReorganization(b *testing.B) {
	cfg, opt, win, cur := benchTunerSetup(b)
	want := tuneGolden(b)
	b.ReportAllocs()
	b.ResetTimer()
	var r *Reorg
	for i := 0; i < b.N; i++ {
		// A fresh tuner per iteration, as multistore.reorg builds one.
		var err error
		if r, err = NewTuner(cfg, opt).Tune(cur, win); err != nil {
			b.Fatal(err)
		}
	}
	if got := reorgFingerprint(r); got != want {
		b.Fatalf("reorganization diverged from testdata/tune_reorg.golden:\n got %s\nwant %s", got, want)
	}
	b.ReportMetric(float64(cur.HV.Len()), "candidate-views")
}

// BenchmarkPackKnapsack isolates the DP itself at two realistic sizes: the
// benchmark pipeline's 48 movers into a DW-like budget, and the HV phase at
// the paper's budgets, whose candidates weigh far less than the budget.
func BenchmarkPackKnapsack(b *testing.B) {
	gb := int64(1) << 30
	hvItems, bh, bt := knapsackHVBudget()
	for _, c := range []struct {
		name        string
		items       []*Item
		storage, bt int64
		dims        func(*Item) (int64, float64)
	}{
		{"48items", knapsack48(), 400 * gb, 10 * gb, dwDims},
		{"hv-budget", hvItems, bh, bt, hvDims},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				packKnapsack(c.items, c.storage, c.bt, c.dims)
			}
		})
	}
}
