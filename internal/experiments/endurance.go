// Long-horizon adversarial endurance harness: closed-loop clients with
// think time across hundreds of tenants drive a served MS-MISO system
// while the SiteViewRot fault site silently corrupts resident views and
// the background integrity scrubber detects and self-heals them under
// live traffic. The run spans at least MinReorgs reorganization cycles;
// at exit the harness proves that every injected corruption was detected
// and repaired (or had legitimately left the design), that a final
// verification pass finds zero violations, and that goodput stayed
// within bound of an identical rot-free control run. Written as
// BENCH_endurance.json by misobench -mode endurance.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"miso/internal/audit"
	"miso/internal/faults"
	"miso/internal/multistore"
	"miso/internal/serve"
	"miso/internal/views"
	"miso/internal/workload"
)

// EnduranceConfig parameterizes the endurance run.
type EnduranceConfig struct {
	Config
	// Workers / Queue configure the serving frontend.
	Workers int
	Queue   int
	// Tenants is the closed-loop client population; each client is its
	// own tenant and holds at most one query in flight.
	Tenants int
	// ThinkTime is the mean pause between a client's response and its
	// next submission (jittered ±50% per client).
	ThinkTime time.Duration
	// RotRate arms SiteViewRot at this per-operation probability.
	RotRate float64
	// MinReorgs is the horizon: the run continues until this many
	// reorganization cycles have completed (and MinQueries served).
	MinReorgs int
	// MinQueries is the minimum served-query horizon.
	MinQueries int
	// MaxDuration caps the run's wall clock; hitting it before the
	// horizon fails the run with a note.
	MaxDuration time.Duration
	// ScrubInterval / ScrubChunk rate-limit the background scrubber.
	ScrubInterval time.Duration
	ScrubChunk    int
	// Seed drives the adversarial generator's per-client choices.
	Seed int64
}

// DefaultEndurance returns the CI shape: small data, hundreds of
// tenants, a short multi-reorg horizon.
func DefaultEndurance(base Config) EnduranceConfig {
	return EnduranceConfig{
		Config:        base,
		Workers:       4,
		Queue:         16,
		Tenants:       200,
		ThinkTime:     25 * time.Millisecond,
		RotRate:       0.08,
		MinReorgs:     3,
		MinQueries:    150,
		MaxDuration:   3 * time.Minute,
		ScrubInterval: 2 * time.Millisecond,
		ScrubChunk:    4,
		Seed:          11,
	}
}

// EnduranceCheck is one acceptance criterion's verdict.
type EnduranceCheck struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// EnduranceReport is the machine-readable endurance report
// (BENCH_endurance.json).
type EnduranceReport struct {
	Host

	Tenants     int     `json:"tenants"`
	DurationSec float64 `json:"duration_sec"`
	Reorgs      int     `json:"reorgs"`

	Submitted  int     `json:"submitted"`
	Served     int     `json:"served"`
	Shed       int     `json:"shed"`
	Failed     int     `json:"failed"`
	GoodputQPS float64 `json:"goodput_qps"`
	// ControlGoodputQPS is the rot-free control run's goodput; Ratio is
	// rot-run goodput over it.
	ControlGoodputQPS float64 `json:"control_goodput_qps"`
	GoodputRatio      float64 `json:"goodput_ratio"`

	RotInjected  int `json:"rot_injected"`
	RotDistinct  int `json:"rot_distinct_views"`
	AuditDetects int `json:"audit_violations_detected"`
	AuditRepairs int `json:"audit_violations_repaired"`
	AuditUnrep   int `json:"audit_violations_unrepaired"`
	ScrubPasses  int `json:"scrub_passes"`
	ScrubChunks  int `json:"scrub_chunks"`
	// FinalViolations counts violations found by the post-run
	// verification pass (must be zero).
	FinalViolations int     `json:"final_violations"`
	RecoverySeconds float64 `json:"recovery_seconds"`

	Checks []EnduranceCheck `json:"checks"`
	Pass   bool             `json:"pass"`
}

// WriteText renders the report as plain text.
func (r *EnduranceReport) WriteText(w io.Writer) {
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	fprintf(w, "endurance run [%s] (%s/%s, %d CPU, scale=%s)\n",
		verdict, r.GOOS, r.GOARCH, r.NumCPU, r.Scale)
	fprintf(w, "  %d tenants closed-loop for %.1fs, %d reorg cycles\n",
		r.Tenants, r.DurationSec, r.Reorgs)
	fprintf(w, "  served %d of %d submitted (shed %d, failed %d) — %.1f q/s vs rot-free %.1f q/s (ratio %.2f)\n",
		r.Served, r.Submitted, r.Shed, r.Failed, r.GoodputQPS, r.ControlGoodputQPS, r.GoodputRatio)
	fprintf(w, "  rot injected %d (%d distinct views); audit detected %d, repaired %d, unrepaired %d over %d passes (%d chunks)\n",
		r.RotInjected, r.RotDistinct, r.AuditDetects, r.AuditRepairs, r.AuditUnrep, r.ScrubPasses, r.ScrubChunks)
	fprintf(w, "  final verification violations %d, recovery %.1fs charged\n",
		r.FinalViolations, r.RecoverySeconds)
	for _, c := range r.Checks {
		mark := "ok  "
		if !c.Pass {
			mark = "FAIL"
		}
		fprintf(w, "  [%s] %-22s %s\n", mark, c.Name, c.Detail)
	}
}

// Passed reports whether every acceptance check held.
func (r *EnduranceReport) Passed() bool { return r.Pass }

// enduranceOutcome is what one (rot or control) run produces.
type enduranceOutcome struct {
	sys      *multistore.System
	scrub    *audit.Scrubber
	elapsed  time.Duration
	tally    *tally
	timedOut bool
}

func (o *enduranceOutcome) goodput() float64 {
	if o.elapsed <= 0 {
		return 0
	}
	return float64(o.tally.served) / o.elapsed.Seconds()
}

// adversarialSQL is the per-client query generator: mostly the evolving
// analyst rotation, salted with the workload's heavy tail — repeated
// view-hot queries that keep the catalogs populated (rot needs resident
// victims), expensive late-window shapes whose working sets exhaust
// transfer budgets, and slow multi-join shapes that trip the hedge
// threshold when hedging is armed.
func adversarialSQL(rng *rand.Rand, sqls []string, i int) string {
	switch p := rng.Float64(); {
	case p < 0.15:
		// Heavy tail: the last quarter of the evolving workload carries
		// the widest windows and largest working sets.
		return sqls[len(sqls)-1-rng.Intn(len(sqls)/4)]
	case p < 0.30:
		// Hot repeat: hammer one query so its views stay resident and
		// rot always has a victim worth repairing.
		return sqls[rng.Intn(4)]
	default:
		return sqls[(i+rng.Intn(3))%len(sqls)]
	}
}

// runEndurance executes one closed-loop run (rot armed or not) and
// leaves the system and scrubber alive for the caller's exit audits.
func (cfg EnduranceConfig) runEndurance(rotRate float64) (*enduranceOutcome, error) {
	sys, err := cfg.newSystem(multistore.VariantMSMiso, func(mc *multistore.Config) {
		mc.Faults = faults.Profile{}.With(faults.SiteViewRot, rotRate)
		mc.FaultSeed = cfg.Seed
		mc.CheckpointEvery = 8
		// Hedge-triggering slow shapes only matter if hedging is armed.
		mc.Hedge = multistore.HedgeConfig{Enabled: true}
	})
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(serve.Config{
		Workers: cfg.Workers, QueueDepth: cfg.Queue,
		QueryTimeout: 20 * time.Second, DrainTimeout: 2 * time.Second,
	}, sys)
	scrub := audit.New(sys, audit.Config{
		Interval:   cfg.ScrubInterval,
		ChunkViews: cfg.ScrubChunk,
		Repair:     true,
		Quiesce:    srv.Quiesce,
	})
	scrub.Start()

	d := newDriver(srv)
	out := &enduranceOutcome{sys: sys, scrub: scrub, tally: d.tally}
	stop := make(chan struct{})

	// Horizon watcher: stop once the reorg-cycle and served-query
	// horizons are both met, or the wall-clock cap is hit.
	var watchWG sync.WaitGroup
	watchWG.Add(1)
	deadline := time.Now().Add(cfg.MaxDuration)
	go func() {
		defer watchWG.Done()
		defer close(stop)
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for range t.C {
			if sys.Metrics().Reorgs >= cfg.MinReorgs && srv.Metrics().Completed >= cfg.MinQueries {
				return
			}
			if time.Now().After(deadline) {
				out.timedOut = true
				return
			}
		}
	}()

	sqls := workload.SQLs()
	start := time.Now()
	d.closed(closedLoop{
		clients: cfg.Tenants, think: cfg.ThinkTime, seed: cfg.Seed, stop: stop,
		next: func(c, i int, rng *rand.Rand) request {
			return request{tenant: fmt.Sprintf("t%03d", c), sql: adversarialSQL(rng, sqls, c+i)}
		},
	})
	watchWG.Wait()
	out.elapsed = time.Since(start)
	srv.Close()
	scrub.Stop()
	return out, d.tally.check()
}

// unaccountedRot counts the distinct rotted view names, and how many of
// them are unaccounted for: never repaired, yet the rotted copy itself is
// still resident. A rotted copy that was never repaired must have left the
// design (evicted or dropped by the tuner before a scrub chunk reached it
// — its corruption left the system with it). A resident view of the same
// name created since is a different copy: names derive from signatures, so
// a later query re-captures them.
func unaccountedRot(sys *multistore.System, repaired map[string]bool) (distinct, unaccounted int) {
	counted := map[string]bool{}
	seen := map[multistore.RotRecord]bool{}
	for _, rot := range sys.RotLog() {
		if !counted[rot.Name] {
			counted[rot.Name] = true
			distinct++
		}
		if seen[rot] || repaired[rot.Name] {
			continue
		}
		seen[rot] = true
		for _, set := range []*views.Set{sys.HV().Views, sys.DW().Views} {
			if v, ok := set.Get(rot.Name); ok && v.CreatedSeq == rot.CreatedSeq {
				unaccounted++
			}
		}
	}
	return distinct, unaccounted
}

// unsettledViolations counts the scrubber's unrepaired findings that the
// final verification pass cannot settle: views quarantined as irreparable
// and system-wide violations (ledgers, accounting, an open reorg window).
// An unrepaired finding that names a view is settled by that pass — the
// view verifies there or has left the design. The one such finding a
// healthy run produces: a rotted view that a reorganization moves before a
// scrub chunk reaches it is journaled as it is, and the WAL audit can only
// report that durable copy (its live source is just as corrupt) until the
// checksum repair recomputes the view and re-journals it, or the tuner
// drops it.
func unsettledViolations(viols []multistore.AuditViolation) int {
	n := 0
	for _, v := range viols {
		if !v.Repaired && (v.Quarantined || v.View == "") {
			n++
		}
	}
	return n
}

// RunEndurance executes the adversarial endurance run plus its rot-free
// control and assembles the acceptance report.
func RunEndurance(cfg EnduranceConfig) (*EnduranceReport, error) {
	if cfg.Tenants <= 0 {
		cfg.Tenants = 200
	}
	if cfg.MinReorgs <= 0 {
		cfg.MinReorgs = 3
	}
	if cfg.MinQueries <= 0 {
		cfg.MinQueries = 150
	}
	if cfg.MaxDuration <= 0 {
		cfg.MaxDuration = 3 * time.Minute
	}
	if cfg.ThinkTime <= 0 {
		cfg.ThinkTime = 25 * time.Millisecond
	}

	rot, err := cfg.runEndurance(cfg.RotRate)
	if err != nil {
		return nil, fmt.Errorf("experiments: endurance rot run: %w", err)
	}
	// The control differs only in the rot rate: same tenants, same
	// horizon, scrubber still running (its cost is present in both).
	control, err := cfg.runEndurance(0)
	if err != nil {
		return nil, fmt.Errorf("experiments: endurance control run: %w", err)
	}

	sys := rot.sys
	// Exit audit: one more repair pass catches rot injected after the
	// scrubber's last look (or views a reorg moved mid-pass), then an
	// independent verification pass must come back clean.
	if _, err := rot.scrub.RunOnce(); err != nil {
		return nil, fmt.Errorf("experiments: endurance exit repair pass: %w", err)
	}
	finalViols, err := audit.RunOnce(sys, false)
	if err != nil {
		return nil, fmt.Errorf("experiments: endurance verification pass: %w", err)
	}

	m := sys.Metrics()
	sr := rot.scrub.Report()
	// Which rotted names were repaired at least once? Anything corrupt AND
	// resident would have failed the verification pass above.
	repaired := map[string]bool{}
	for _, v := range sr.Violations {
		if v.Repaired && v.Invariant == multistore.InvChecksum {
			repaired[v.View] = true
		}
	}
	rotInjected := len(sys.RotLog())
	rotDistinct, unaccounted := unaccountedRot(sys, repaired)

	rep := &EnduranceReport{
		Host:    cfg.host(),
		Tenants: cfg.Tenants, DurationSec: rot.elapsed.Seconds(), Reorgs: m.Reorgs,
		Submitted: rot.tally.submitted, Served: rot.tally.served, Shed: rot.tally.shed, Failed: rot.tally.failed,
		GoodputQPS: rot.goodput(), ControlGoodputQPS: control.goodput(),
		RotInjected: rotInjected, RotDistinct: rotDistinct,
		AuditDetects: m.AuditViolations, AuditRepairs: m.AuditRepaired, AuditUnrep: m.AuditUnrepaired,
		ScrubPasses: sr.Passes, ScrubChunks: sr.Chunks,
		FinalViolations: len(finalViols), RecoverySeconds: m.Recovery,
	}
	if rep.ControlGoodputQPS > 0 {
		rep.GoodputRatio = rep.GoodputQPS / rep.ControlGoodputQPS
	}

	check := func(name string, pass bool, detail string, args ...any) {
		rep.Checks = append(rep.Checks, EnduranceCheck{
			Name: name, Pass: pass, Detail: fmt.Sprintf(detail, args...),
		})
	}
	check("horizon", !rot.timedOut && m.Reorgs >= cfg.MinReorgs && rep.Served >= cfg.MinQueries,
		"%d reorg cycles (need >= %d), %d served (need >= %d), timed out: %v",
		m.Reorgs, cfg.MinReorgs, rep.Served, cfg.MinQueries, rot.timedOut)
	check("rot-exercised", rotInjected > 0,
		"%d corruptions injected across %d views", rotInjected, rotDistinct)
	check("rot-repaired", unaccounted == 0,
		"%d distinct rotted views: %d repaired online, %d left the design, %d unaccounted",
		rotDistinct, len(repaired), rotDistinct-len(repaired)-unaccounted, unaccounted)
	unsettled := unsettledViolations(sr.Violations)
	if sr.DroppedViolations > 0 {
		// The report's list is truncated: fall back to the strict count.
		unsettled = m.AuditUnrepaired
	}
	check("zero-unrepaired", unsettled == 0 && sr.Fatal == nil,
		"%d unrepaired violations at exit (%d unrepaired when found, the rest settled by the final pass)",
		unsettled, m.AuditUnrepaired)
	check("final-pass-clean", len(finalViols) == 0,
		"%d violations on the independent verification pass", len(finalViols))
	check("goodput-bound", rep.ControlGoodputQPS <= 0 || rep.GoodputRatio >= 0.5,
		"rot goodput %.1f q/s vs control %.1f q/s (need ratio >= 0.5, got %.2f)",
		rep.GoodputQPS, rep.ControlGoodputQPS, rep.GoodputRatio)
	if err := sys.CheckInvariants(); err != nil {
		check("invariants", false, "%v", err)
	} else {
		check("invariants", true, "catalog invariants hold at exit")
	}

	rep.Pass = true
	for _, c := range rep.Checks {
		if !c.Pass {
			rep.Pass = false
		}
	}
	return rep, nil
}
