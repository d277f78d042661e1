package core_test

import (
	"fmt"
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
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		b.Fatal(err)
	}
	cfg := multistore.DefaultConfig(multistore.VariantMSMiso)
	cfg.SetBudgets(cat, 2.0, 10<<30)
	sys := multistore.New(cfg, cat)
	builder := logical.NewBuilder(cat)
	win := history.NewWindow(6, 3, cfg.Decay)
	for i, sql := range workload.SQLs() {
		if _, err := sys.Run(sql); err != nil {
			b.Fatal(err)
		}
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

// TestProbeTableMatchesReference holds the tuner's probe table against the
// reference loops (core.CheckProbeTable) on the micro-benchmark's window and
// at every reorganization of the MS-MISO small run: after each third query
// the system's design and the window of the last six plans are what the
// reorganization preceding the next query tunes over (every 4th of them
// under -short).
func TestProbeTableMatchesReference(t *testing.T) {
	t.Run("bench window", func(t *testing.T) {
		_, opt, win, cur := core.BenchTunerSetup(t)
		core.CheckProbeTable(t, opt, cur, win)
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
