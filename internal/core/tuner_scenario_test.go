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

// TestTunerAfterSplitExecution replicates the full system's state at the
// first reorganization (queries executed as split plans, not HV-only).
func TestTunerAfterSplitExecution(t *testing.T) {
	cat, _ := data.Generate(data.SmallConfig())
	est := stats.NewEstimator(cat)
	h := hv.NewStore(cat, est, 0)
	d := dw.NewStore(est, 0)
	opt := optimizer.New(h, d, est)
	builder := logical.NewBuilder(cat)
	w := history.NewWindow(6, 3, 0.5)
	for i, name := range []string{"A1v1", "A1v2", "A1v3"} {
		q, _ := workload.ByName(name)
		plan, _ := builder.BuildSQL(q.SQL)
		mp, err := opt.Choose(plan, optimizer.Design{HV: h.Views, DW: d.Views})
		if err != nil {
			t.Fatal(err)
		}
		if mp.HVOnly {
			if _, err := h.ExecuteContext(context.Background(), mp.HVPlan, i); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, cut := range mp.Cuts {
				if cut.DWView != nil {
					continue
				}
				res, err := h.ExecuteContext(context.Background(), cut.HVPlan, i)
				if err != nil {
					t.Fatal(err)
				}
				d.StageTemp(cut.TempName, res.Table)
			}
			if _, err := d.ExecuteContext(context.Background(), mp.DWPart); err != nil {
				t.Fatal(err)
			}
			d.ClearTemp()
		}
		w.Add(history.Entry{Seq: i, SQL: q.SQL, Plan: plan})
	}
	var cfg Config
	base := cat.TotalLogicalBytes()
	cfg.Bh, cfg.Bd, cfg.Bt = 2*base, 2*base/10, 10<<30
	tuner := NewTuner(cfg, opt)
	tuner.Debug = func(items, dwChosen, hvChosen []*Item) {
		for _, it := range items {
			t.Logf("item %v size=%.2fGB bnDW=%.0f bnHV=%.0f moveDW=%.2fGB",
				it.names(), float64(it.Size)/1e9, it.BnDW, it.BnHV, float64(it.MoveToDW)/1e9)
		}
		for _, it := range dwChosen {
			t.Logf("DW CHOSE %v (%.2fGB bn=%.0f)", it.names(), float64(it.Size)/1e9, it.BnDW)
		}
		t.Logf("dwChosen=%d hvChosen=%d", len(dwChosen), len(hvChosen))
	}
	if _, err := tuner.Tune(optimizer.Design{HV: h.Views, DW: d.Views}, w); err != nil {
		t.Fatal(err)
	}
	for _, v := range h.Views.All() {
		t.Logf("HV view %s kind=%v %.2fGB", v.Name, v.Def.Kind, float64(v.SizeBytes())/1e9)
	}
}
