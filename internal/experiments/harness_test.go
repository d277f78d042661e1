package experiments

import (
	"testing"
	"time"

	"miso/internal/workload"
)

// TestServingHarnessesSmoke runs, at test scale, the serving harnesses no
// other tier-1 test reaches. Each harness checks serve.Metrics.Check(),
// the catalog invariants and its tallies' accounting itself and returns an
// error when one fails; the rows assert what the reports expose on top:
// the submission counts and the verdicts that do not depend on load.
func TestServingHarnessesSmoke(t *testing.T) {
	nq := len(workload.SQLs())
	for _, row := range []struct {
		name string
		long bool // wall-clock bound, or many workload replays: skipped under -short
		run  func(t *testing.T)
	}{
		{"soak", false, func(t *testing.T) {
			sc := DefaultSoak(Small())
			sc.Sessions, sc.Queries, sc.ReorgEvery = 4, 8, 10
			r, err := Soak(sc)
			if err != nil {
				t.Fatal(err)
			}
			m := r.Serve
			if err := m.Check(); err != nil {
				t.Fatal(err)
			}
			if m.Submitted != 32 || m.Reorgs != 3 || r.Cfg.Queue != 8 {
				t.Fatalf("submitted %d reorgs %d queue %d, want 32, 3 and the effective depth 8", m.Submitted, m.Reorgs, r.Cfg.Queue)
			}
		}},
		{"benchgov", false, func(t *testing.T) {
			r, err := BenchGovern(Small())
			if err != nil {
				t.Fatal(err)
			}
			if r.StormSubmitted != 32 || r.PanicSubmitted != nq || r.MemSubmitted != 8 {
				t.Fatalf("submitted %d/%d/%d, want 32/%d/8", r.StormSubmitted, r.PanicSubmitted, r.MemSubmitted, nq)
			}
			if r.PanicCompleted+r.PanicContained != r.PanicSubmitted {
				t.Fatalf("panic run: %d completed + %d contained != %d submitted", r.PanicCompleted, r.PanicContained, r.PanicSubmitted)
			}
			if !r.DigestIdentical || !r.PanicSurvivorsIdentical || r.MemAborted != r.MemSubmitted {
				t.Fatalf("digest identical %v, survivors identical %v, mem aborted %d of %d",
					r.DigestIdentical, r.PanicSurvivorsIdentical, r.MemAborted, r.MemSubmitted)
			}
		}},
		{"endurance", true, func(t *testing.T) {
			ec := DefaultEndurance(Small())
			ec.Tenants, ec.MinQueries, ec.MaxDuration = 60, 80, 90*time.Second
			r, err := RunEndurance(ec)
			if err != nil {
				t.Fatal(err)
			}
			if r.Submitted != r.Served+r.Shed+r.Failed {
				t.Fatalf("submitted %d != served %d + shed %d + failed %d", r.Submitted, r.Served, r.Shed, r.Failed)
			}
			// goodput-bound and horizon depend on the machine's load.
			for _, c := range r.Checks {
				switch c.Name {
				case "final-pass-clean", "rot-repaired", "rot-exercised", "zero-unrepaired", "invariants":
					if !c.Pass {
						t.Errorf("%s: %s", c.Name, c.Detail)
					}
				}
			}
		}},
		{"chaos serve/govern/audit rows", true, func(t *testing.T) {
			defer func(rates []float64) { ChaosRates = rates }(ChaosRates)
			ChaosRates = []float64{0, 0.05}
			r, err := Chaos(Small())
			if err != nil {
				t.Fatal(err)
			}
			rows := map[string]int{}
			for _, p := range r.Points {
				rows[p.Mode]++
				switch p.Mode {
				case "seq", "crash", "audit":
					if p.Completed != nq {
						t.Errorf("%s row at rate %.2f completed %d of %d", p.Mode, p.Rate, p.Completed, nq)
					}
				case "serve":
					if p.Completed == 0 || p.Completed+p.Sheds+p.Timeouts > chaosServeSessions*nq {
						t.Errorf("serve row at rate %.2f: completed %d, shed %d, timed out %d of %d",
							p.Rate, p.Completed, p.Sheds, p.Timeouts, chaosServeSessions*nq)
					}
				case "govern":
					if got := p.Completed + p.Sheds + p.Timeouts + p.Canceled + p.MemAborted + p.PanicsContained; got != 64 {
						t.Errorf("govern row at rate %.2f accounts for %d of 64 submissions", p.Rate, got)
					}
				}
			}
			for mode, want := range map[string]int{"seq": 4, "serve": 2, "crash": 2, "govern": 2, "audit": 2} {
				if rows[mode] != want {
					t.Errorf("%d %s rows, want %d", rows[mode], mode, want)
				}
			}
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			if row.long && testing.Short() {
				t.Skip("long")
			}
			row.run(t)
		})
	}
}
