package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"miso/internal/core"
	"miso/internal/data"
	"miso/internal/history"
	"miso/internal/logical"
	"miso/internal/multistore"
	"miso/internal/views"
	"miso/internal/workload"
)

func viewNames(vs []*views.View) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = v.Name
	}
	return out
}

// BenchmarkTuneWarm measures one reorganization decision on a warm system:
// the design MS-MISO holds after the 32-query workload (both stores
// populated, the estimator holding every executed node), and the window the
// next reorganization would see — the last six workload plans at the
// system's epoch length and decay, refilled here because System exports no
// window accessor. One iteration is what multistore.reorg pays before it
// moves anything: a fresh Tuner and one Tune.
func BenchmarkTuneWarm(b *testing.B) {
	sys, cfg := warmMSMiso(b)
	builder := logical.NewBuilder(sys.Catalog())
	win := history.NewWindow(6, 3, cfg.Decay)
	for i, sql := range workload.SQLs() {
		p, err := builder.BuildSQL(sql)
		if err != nil {
			b.Fatal(err)
		}
		win.Add(history.Entry{Seq: i, SQL: sql, Plan: p})
	}
	opt, d := sys.Optimizer(), sys.Design()
	if d.HV.Len() == 0 || d.DW.Len() == 0 {
		b.Fatalf("design not warm: %d HV views, %d DW views", d.HV.Len(), d.DW.Len())
	}
	var want string
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := core.NewTuner(cfg.Tuner, opt).Tune(d, win)
		if err != nil {
			b.Fatal(err)
		}
		got := fmt.Sprint(viewNames(r.NewHV.All()), viewNames(r.NewDW.All()),
			viewNames(r.MoveToDW), viewNames(r.MoveToHV), viewNames(r.DropHV))
		if want == "" {
			want = got
		}
		if got != want {
			b.Fatalf("iteration %d chose another design:\n got %s\nwant %s", i, got, want)
		}
	}
	b.ReportMetric(float64(d.HV.Len()+d.DW.Len()), "candidate-views")
}

// warmMSMiso is MS-MISO at small scale after the 32-query workload, which
// it ran reorganizing every third query: both stores hold views and the
// estimator holds every executed node.
func warmMSMiso(t testing.TB) (*multistore.System, multistore.Config) {
	t.Helper()
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := multistore.DefaultConfig(multistore.VariantMSMiso)
	cfg.SetBudgets(cat, 2.0, 10<<30)
	sys := multistore.New(cfg, cat)
	for i, sql := range workload.SQLs() {
		if _, err := sys.Run(sql); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	return sys, cfg
}

// servedWindows returns the first n six-query windows of the served
// benchmark workloads' draw for one client at seed 42 — Zipf(1.2) over the
// 32 paper queries, rank k the k-th query — at the system's epoch length
// and decay. One builder builds every plan, so a statement drawn twice is
// one plan pointer, as the system's own builder makes it.
func servedWindows(t testing.TB, sys *multistore.System, decay float64, n int) []*history.Window {
	t.Helper()
	sqls := workload.SQLs()
	z := rand.NewZipf(rand.New(rand.NewSource(42*7919)), 1.2, 1, uint64(len(sqls)-1))
	builder := logical.NewBuilder(sys.Catalog())
	wins := make([]*history.Window, n)
	for k := range wins {
		wins[k] = history.NewWindow(6, 3, decay)
		for i := range 6 {
			sql := sqls[z.Uint64()]
			p, err := builder.BuildSQL(sql)
			if err != nil {
				t.Fatal(err)
			}
			wins[k].Add(history.Entry{Seq: 6*k + i, SQL: sql, Plan: p})
		}
	}
	return wins
}

// TestProbeTableMatchesReference holds the tuner's probe table against the
// reference loops (core.CheckProbeTable) on the micro-benchmark's window, on
// the first window of the served draw (whose repeated statements share one
// run of slots), and at every reorganization of the MS-MISO small run:
// after each third query the system's design and the window of the last six
// plans are what the reorganization preceding the next query tunes over
// (every 4th of them under -short).
func TestProbeTableMatchesReference(t *testing.T) {
	t.Run("bench window", func(t *testing.T) {
		_, opt, win, cur := core.BenchTunerSetup(t)
		core.CheckProbeTable(t, opt, cur, win)
	})
	t.Run("served window", func(t *testing.T) {
		sys, cfg := warmMSMiso(t)
		win := servedWindows(t, sys, cfg.Decay, 1)[0]
		plans := map[*logical.Node]bool{}
		for _, e := range win.Entries() {
			plans[e.Plan] = true
		}
		if len(plans) == len(win.Entries()) {
			t.Fatalf("the window's %d entries hold %d plans: no run is shared", len(win.Entries()), len(plans))
		}
		core.CheckProbeTable(t, sys.Optimizer(), sys.Design(), win)
	})
	t.Run("MS-MISO small", func(t *testing.T) {
		cat, err := data.Generate(data.SmallConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := multistore.DefaultConfig(multistore.VariantMSMiso)
		cfg.SetBudgets(cat, 2.0, 10<<30)
		sys := multistore.New(cfg, cat)
		builder := logical.NewBuilder(cat)
		win := history.NewWindow(6, 3, cfg.Decay)
		reorgs := 0
		for i, sql := range workload.SQLs() {
			if i > 0 && i%cfg.ReorgEvery == 0 {
				if reorgs++; !testing.Short() || reorgs%4 == 1 {
					core.CheckProbeTable(t, sys.Optimizer(), sys.Design(), win)
				}
			}
			if _, err := sys.Run(sql); err != nil {
				t.Fatal(err)
			}
			p, err := builder.BuildSQL(sql)
			if err != nil {
				t.Fatal(err)
			}
			win.Add(history.Entry{Seq: i, SQL: sql, Plan: p})
		}
		if got := len(sys.ReorgLog()); got != reorgs {
			t.Fatalf("the system reorganized %d times, the test checked for %d", got, reorgs)
		}
	})
}

// TestTuneServedWindowAllocs guards what costing each statement and each
// DW remainder once saves: one Tune on a warm MS-MISO system over each of
// the first four windows of the served draw allocates 3 089, 3 358, 4 011
// and 5 222 times, against 4 866, 5 152, 5 970 and 5 639 when every entry
// built its own plan space and every pair probe rebuilt the remainders its
// singletons had built. The ceilings sit a quarter above the first four.
func TestTuneServedWindowAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	sys, cfg := warmMSMiso(t)
	opt, d := sys.Optimizer(), sys.Design()
	wins := servedWindows(t, sys, cfg.Decay, 4)
	for k, ceiling := range []float64{3860, 4200, 5015, 6530} {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := core.NewTuner(cfg.Tuner, opt).Tune(d, wins[k]); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("window %d: one Tune allocates %.0f times", k, allocs)
		if allocs > ceiling {
			t.Errorf("window %d: one Tune allocates %.0f times, ceiling %.0f", k, allocs, ceiling)
		}
	}
}
