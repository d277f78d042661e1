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

type tunerFixture struct {
	hv    *hv.Store
	dw    *dw.Store
	opt   *optimizer.Optimizer
	win   *history.Window
	base  int64
	tuner *Tuner
}

// newTunerFixture executes the first analyst's queries in HV so the store
// holds opportunistic views, then builds a tuner with the given budgets.
func newTunerFixture(t *testing.T, names []string, cfgEdit func(*Config)) *tunerFixture {
	t.Helper()
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	est := stats.NewEstimator(cat)
	h := hv.NewStore(cat, est, 0)
	d := dw.NewStore(est, 0)
	opt := optimizer.New(h, d, est)
	b := logical.NewBuilder(cat)
	win := history.NewWindow(6, 3, 0.5)
	for i, name := range names {
		q, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("unknown query %s", name)
		}
		plan, err := b.BuildSQL(q.SQL)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.ExecuteContext(context.Background(), plan, i); err != nil {
			t.Fatal(err)
		}
		win.Add(history.Entry{Seq: i, SQL: q.SQL, Plan: plan})
	}
	base := cat.TotalLogicalBytes()
	var cfg Config
	cfg.Bh = 2 * base
	cfg.Bd = 2 * base / 10
	cfg.Bt = 10 << 30
	if cfgEdit != nil {
		cfgEdit(&cfg)
	}
	return &tunerFixture{
		hv: h, dw: d, opt: opt, win: win, base: base,
		tuner: NewTuner(cfg, opt),
	}
}

func TestTuneInvariants(t *testing.T) {
	f := newTunerFixture(t, []string{"A1v1", "A1v2", "A1v3"}, nil)
	cur := optimizer.Design{HV: f.hv.Views, DW: f.dw.Views}
	r, err := f.tuner.Tune(cur, f.win)
	if err != nil {
		t.Fatal(err)
	}
	// Vh and Vd are disjoint.
	for _, v := range r.NewDW.All() {
		if r.NewHV.Has(v.Name) {
			t.Errorf("view %s in both stores", v.Name)
		}
	}
	// Storage budgets are respected.
	if r.NewDW.TotalBytes() > f.tuner.cfg.Bd {
		t.Errorf("DW design %d bytes exceeds Bd %d", r.NewDW.TotalBytes(), f.tuner.cfg.Bd)
	}
	if r.NewHV.TotalBytes() > f.tuner.cfg.Bh {
		t.Errorf("HV design %d bytes exceeds Bh", r.NewHV.TotalBytes())
	}
	// Every moved view was accounted against the transfer budget.
	var moved int64
	for _, v := range r.MoveToDW {
		moved += v.SizeBytes()
	}
	for _, v := range r.MoveToHV {
		moved += v.SizeBytes()
	}
	if moved != r.TransferBytes {
		t.Errorf("TransferBytes %d != sum of moves %d", r.TransferBytes, moved)
	}
	// New designs only contain views that already existed (opportunistic
	// tuning never creates views).
	for _, v := range append(r.NewDW.All(), r.NewHV.All()...) {
		if !cur.HV.Has(v.Name) && !cur.DW.Has(v.Name) {
			t.Errorf("tuner invented view %s", v.Name)
		}
	}
	// After a session of related queries, something beneficial moved to DW.
	if r.NewDW.Len() == 0 {
		t.Error("no views placed in DW despite an overlapping session")
	}
}

func TestTuneEmptyUniverse(t *testing.T) {
	f := newTunerFixture(t, nil, nil)
	r, err := f.tuner.Tune(optimizer.Design{HV: f.hv.Views, DW: f.dw.Views}, f.win)
	if err != nil {
		t.Fatal(err)
	}
	if r.NewHV.Len() != 0 || r.NewDW.Len() != 0 || r.TransferBytes != 0 {
		t.Error("tuning an empty universe produced a design")
	}
}

func TestTuneRespectsTinyTransferBudget(t *testing.T) {
	f := newTunerFixture(t, []string{"A1v1", "A1v2"}, func(c *Config) {
		c.Bt = 1 << 20 // 1 MB: nothing sizable can move
	})
	r, err := f.tuner.Tune(optimizer.Design{HV: f.hv.Views, DW: f.dw.Views}, f.win)
	if err != nil {
		t.Fatal(err)
	}
	var moved int64
	for _, v := range r.MoveToDW {
		moved += v.SizeBytes()
	}
	if moved > 1<<20 {
		t.Errorf("moved %d bytes with a 1MB transfer budget", moved)
	}
}

func TestTuneDWDesignStickyAcrossRounds(t *testing.T) {
	f := newTunerFixture(t, []string{"A1v1", "A1v2", "A1v3"}, nil)
	cur := optimizer.Design{HV: f.hv.Views, DW: f.dw.Views}
	r1, err := f.tuner.Tune(cur, f.win)
	if err != nil {
		t.Fatal(err)
	}
	if r1.NewDW.Len() == 0 {
		t.Skip("nothing placed; stickiness untestable")
	}
	// Re-tuning with the same window keeps the DW design (resident views
	// have no movement cost, so they dominate their own replacements).
	next := optimizer.Design{HV: r1.NewHV, DW: r1.NewDW}
	tuner2 := NewTuner(f.tuner.cfg, f.opt)
	r2, err := tuner2.Tune(next, f.win)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range r1.NewDW.All() {
		if !r2.NewDW.Has(v.Name) {
			t.Errorf("resident DW view %s dropped on an unchanged window", v.Name)
		}
	}
	if len(r2.MoveToDW) != 0 {
		t.Errorf("re-tuning moved %d views on an unchanged window", len(r2.MoveToDW))
	}
}

func TestHVFirstAblationDiffers(t *testing.T) {
	runOrder := func(hvFirst bool) (*Reorg, *Tuner) {
		f := newTunerFixture(t, []string{"A1v1", "A1v2", "A1v3"}, func(c *Config) {
			c.HVFirst = hvFirst
		})
		r, err := f.tuner.Tune(optimizer.Design{HV: f.hv.Views, DW: f.dw.Views}, f.win)
		if err != nil {
			t.Fatal(err)
		}
		return r, f.tuner
	}
	dwFirst, _ := runOrder(false)
	hvFirst, _ := runOrder(true)
	// Both orders produce valid disjoint designs; DW-first should give DW
	// at least as many views (it gets first pick).
	if dwFirst.NewDW.Len() < hvFirst.NewDW.Len() {
		t.Errorf("DW-first placed %d DW views, HV-first placed %d",
			dwFirst.NewDW.Len(), hvFirst.NewDW.Len())
	}
}

func TestSkipSparsifyStillValid(t *testing.T) {
	f := newTunerFixture(t, []string{"A1v1", "A1v2", "A1v3"}, func(c *Config) {
		c.SkipSparsify = true
	})
	r, err := f.tuner.Tune(optimizer.Design{HV: f.hv.Views, DW: f.dw.Views}, f.win)
	if err != nil {
		t.Fatal(err)
	}
	if r.NewDW.TotalBytes() > f.tuner.cfg.Bd {
		t.Error("no-sparsify run broke the DW budget")
	}
}

func TestAllowReplicationPlacesBothStores(t *testing.T) {
	f := newTunerFixture(t, []string{"A1v1", "A1v2", "A1v3"}, func(c *Config) {
		c.AllowReplication = true
	})
	r, err := f.tuner.Tune(optimizer.Design{HV: f.hv.Views, DW: f.dw.Views}, f.win)
	if err != nil {
		t.Fatal(err)
	}
	// With replication allowed, a view MAY appear in both stores; the
	// designs must still respect their individual budgets.
	if r.NewDW.TotalBytes() > f.tuner.cfg.Bd || r.NewHV.TotalBytes() > f.tuner.cfg.Bh {
		t.Error("replication run broke a storage budget")
	}
}
