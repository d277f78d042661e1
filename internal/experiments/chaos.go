package experiments

import (
	"fmt"
	"io"
	"time"

	"miso/internal/audit"
	"miso/internal/faults"
	"miso/internal/multistore"
	"miso/internal/serve"
	"miso/internal/workload"
)

// ChaosPoint is one (failure rate, variant, mode) cell of the chaos
// sweep. Mode "seq" replays the workload single-stream through
// System.Run; mode "serve" replays it through the concurrent serving
// frontend, where the extra columns (sheds, breaker trips, degraded
// queries) become meaningful.
type ChaosPoint struct {
	Rate      float64
	Variant   multistore.Variant
	Mode      string
	TTI       float64
	Recovery  float64
	Retries   int
	Fallbacks int
	// Completed counts queries that produced a result (all of them, if
	// recovery holds up; the sweep fails the run otherwise).
	Completed int
	// Sheds / BreakerTrips / Timeouts / Degraded are the serving-plane
	// outcomes; always zero in mode "seq".
	Sheds        int
	BreakerTrips int
	Timeouts     int
	Degraded     int
	// Recoveries / Replayed / Quarantined are the crash-plane outcomes:
	// process crashes survived via Recover, WAL records replayed across
	// those recoveries, and views quarantined (corrupt or stale) on the way
	// back. Always zero in modes "seq" and "serve", which crash nothing.
	Recoveries  int
	Replayed    int
	Quarantined int
	// Canceled / MemAborted / PanicsContained / CancelP99Ms are the
	// governance-plane outcomes (mode "govern"): queries abandoned by
	// caller cancellation, aborted over their memory budget, failed by a
	// worker panic contained to a typed error, and the 99th-percentile
	// cancel-to-idle latency in wall-clock milliseconds. Zero elsewhere.
	Canceled        int
	MemAborted      int
	PanicsContained int
	CancelP99Ms     float64
	// ViolationsDetected / ViolationsRepaired / ViolationsUnrepaired are
	// the audit-plane outcomes (mode "audit"): integrity violations found
	// by the background scrubber while SiteViewRot corrupts resident
	// views at the sweep rate, how many were self-healed online, and how
	// many could only be quarantined. Zero elsewhere.
	ViolationsDetected   int
	ViolationsRepaired   int
	ViolationsUnrepaired int
}

// ChaosResult is the fault-injection experiment (robustness extension, not
// in the paper): the 32-query workload replayed under increasing uniform
// failure rates, comparing the tuned system against the untuned multistore
// baseline, sequentially and through the concurrent serving frontend. All
// runs share one seed; the sequential rows are byte-reproducible, the
// serve rows are reproducible up to worker interleaving.
type ChaosResult struct {
	Seed   int64
	Points []ChaosPoint
}

// ChaosRates are the uniform per-operation failure rates swept.
var ChaosRates = []float64{0, 0.01, 0.02, 0.05, 0.10}

// chaosServeSessions shapes the serve-mode rows: more concurrent
// sessions than worker-pool-plus-queue capacity, so admission control
// has real work to do, without drowning the sweep in wall time.
const (
	chaosServeSessions = 6
	chaosServeWorkers  = 2
	chaosServeQueue    = 2
)

// Chaos runs the sweep. Each point uses a fresh system; the injector seed
// is fixed so repeated invocations reproduce the sequential rows
// byte-identically.
func Chaos(cfg Config) (*ChaosResult, error) {
	const seed = 42
	res := &ChaosResult{Seed: seed}
	// Per rate: both variants single-stream, then the tuned system in each
	// extension mode. A row runs under c, which carries the sweep's
	// uniform rate and seed.
	rows := []struct {
		mode    string
		variant multistore.Variant
		run     func(c Config, v multistore.Variant) (ChaosPoint, error)
	}{
		{"seq", multistore.VariantMSBasic, seqChaosPoint},
		{"seq", multistore.VariantMSMiso, seqChaosPoint},
		{"serve", multistore.VariantMSMiso, serveChaosPoint},
		{"crash", multistore.VariantMSMiso, crashChaosPoint},
		{"govern", multistore.VariantMSMiso, governChaosPoint},
		{"audit", multistore.VariantMSMiso, auditChaosPoint},
	}
	for _, rate := range ChaosRates {
		c := cfg
		c.FaultRate = rate
		c.FaultSeed = seed
		for _, row := range rows {
			p, err := row.run(c, row.variant)
			if err != nil {
				return nil, fmt.Errorf("experiments: chaos %s %s rate %.2f: %w", row.mode, row.variant, rate, err)
			}
			p.Rate, p.Variant, p.Mode = rate, row.variant, row.mode
			res.Points = append(res.Points, p)
		}
	}
	return res, nil
}

// chaosPoint starts a sweep cell from the backend's accounting, which
// every mode reports.
func chaosPoint(m multistore.Metrics) ChaosPoint {
	return ChaosPoint{TTI: m.TTI(), Recovery: m.Recovery, Retries: m.Retries, Fallbacks: m.Fallbacks, Completed: m.Queries}
}

// seqChaosPoint replays the workload single-stream under the uniform rate.
func seqChaosPoint(c Config, v multistore.Variant) (ChaosPoint, error) {
	sys, err := c.runWorkload(v)
	if err != nil {
		return ChaosPoint{}, err
	}
	return chaosPoint(sys.Metrics()), nil
}

// serveChaosPoint replays it through the concurrent serving frontend.
func serveChaosPoint(c Config, v multistore.Variant) (ChaosPoint, error) {
	sr, err := Soak(SoakConfig{
		Config: c, Variant: v,
		Sessions: chaosServeSessions, Workers: chaosServeWorkers, Queue: chaosServeQueue,
	})
	if err != nil {
		return ChaosPoint{}, err
	}
	p := chaosPoint(sr.System)
	p.fromServe(sr.Serve)
	return p, nil
}

// crashChaosPoint replays it with the durability plane on and the crash
// sites scaled with the rate, every death recovered from checkpoint + WAL
// and the killed query resubmitted. The rate-0 row doubles as the
// journaling-overhead control: its TTI must equal the rate-0 seq row
// (journaling charges no simulated time).
func crashChaosPoint(c Config, v multistore.Variant) (ChaosPoint, error) {
	mcfg, cat, err := c.multistoreConfig(v, durable(chaosCrashProfile(c.FaultRate), c.FaultSeed))
	if err != nil {
		return ChaosPoint{}, err
	}
	sys, st, err := runCrashWorkload(mcfg, cat)
	if err != nil {
		return ChaosPoint{}, err
	}
	m := sys.Metrics()
	p := chaosPoint(m)
	p.Degraded = m.Degraded
	p.Recoveries, p.Replayed, p.Quarantined = st.recoveries, st.replayed, st.quarantined
	return p, nil
}

// fromServe fills the serving-plane columns.
func (p *ChaosPoint) fromServe(m serve.Metrics) {
	p.Completed, p.Sheds, p.Timeouts = m.Completed, m.Sheds, m.Timeouts
	p.BreakerTrips, p.Degraded = m.BreakerTrips, m.Degraded
}

// auditChaosPoint replays it with SiteViewRot corrupting resident views at
// the sweep rate and the integrity scrubber running in repair mode. The
// run must end clean: a final verification pass with repair off may find
// nothing, or the audit plane failed to converge and the sweep errors out.
func auditChaosPoint(c Config, v multistore.Variant) (ChaosPoint, error) {
	sys, err := c.newSystem(v, durable(faults.Profile{}.With(faults.SiteViewRot, c.FaultRate), c.FaultSeed))
	if err != nil {
		return ChaosPoint{}, err
	}
	scrub := audit.New(sys, audit.Config{
		Interval: time.Millisecond, ChunkViews: 4, Repair: true,
	})
	scrub.Start()
	_, err = runSQLs(sys, workload.SQLs())
	scrub.Stop()
	if err != nil {
		return ChaosPoint{}, err
	}
	// Catch rot injected after the scrubber's last chunk, then verify.
	if _, err := scrub.RunOnce(); err != nil {
		return ChaosPoint{}, err
	}
	if viols, err := audit.RunOnce(sys, false); err != nil {
		return ChaosPoint{}, err
	} else if len(viols) > 0 {
		return ChaosPoint{}, fmt.Errorf("%d violations survived the repair passes (first: %s)",
			len(viols), viols[0])
	}
	m := sys.Metrics()
	p := chaosPoint(m)
	p.ViolationsDetected, p.ViolationsRepaired, p.ViolationsUnrepaired = m.AuditViolations, m.AuditRepaired, m.AuditUnrepaired
	return p, nil
}

// chaosCrashProfile arms the crash-plane sites at the sweep rate: process
// kills in the serving, transfer and reorganization paths plus durable-copy
// corruption at the full rate, WAL tears at a tenth of it (appends are an
// order of magnitude more frequent than queries).
func chaosCrashProfile(rate float64) faults.Profile {
	return faults.Profile{}.
		With(faults.SiteCrashServe, rate).
		With(faults.SiteCrashTransfer, rate).
		With(faults.SiteCrashReorg, rate).
		With(faults.SiteViewCorrupt, rate).
		With(faults.SiteWALWrite, rate/10)
}

// WriteText renders the sweep as a table: TTI and its recovery share per
// failure rate, for each variant and serving mode.
func (r *ChaosResult) WriteText(w io.Writer) {
	fprintf(w, "Chaos sweep: uniform failure rate vs TTI (seed %d)\n", r.Seed)
	fprintf(w, "%6s %-10s %-6s %12s %12s %8s %8s %6s %6s %6s %9s %6s %8s %6s %6s %6s %6s %8s %6s %6s %6s\n",
		"rate", "variant", "mode", "TTI(s)", "recovery(s)", "rec%", "retries", "fallbk", "sheds", "trips", "degraded",
		"recov", "replayed", "quarn", "cancel", "memab", "panics", "cp99ms", "vdet", "vrep", "vunrep")
	for _, p := range r.Points {
		pct := 0.0
		if p.TTI > 0 {
			pct = 100 * p.Recovery / p.TTI
		}
		fprintf(w, "%5.0f%% %-10s %-6s %12.1f %12.1f %7.1f%% %8d %6d %6d %6d %9d %6d %8d %6d %6d %6d %6d %8.1f %6d %6d %6d\n",
			100*p.Rate, p.Variant, p.Mode, p.TTI, p.Recovery, pct,
			p.Retries, p.Fallbacks, p.Sheds, p.BreakerTrips, p.Degraded,
			p.Recoveries, p.Replayed, p.Quarantined,
			p.Canceled, p.MemAborted, p.PanicsContained, p.CancelP99Ms,
			p.ViolationsDetected, p.ViolationsRepaired, p.ViolationsUnrepaired)
	}
	n := 0
	if len(r.Points) > 0 {
		n = r.Points[0].Completed
	}
	fprintf(w, "all %d-query sequential runs completed under every rate; serve rows add\n", n)
	fprintf(w, "admission sheds, DW breaker trips and degraded HV-only service; crash rows\n")
	fprintf(w, "add process kills survived via checkpoint+WAL recovery (recoveries,\n")
	fprintf(w, "replayed records, quarantined views); govern rows add caller cancellation,\n")
	fprintf(w, "memory-budget aborts and contained worker panics with the p99\n")
	fprintf(w, "cancel-to-idle latency; audit rows add bit-rot corruptions detected,\n")
	fprintf(w, "self-healed and left unrepaired by the background integrity scrubber,\n")
	fprintf(w, "on top of the retries, backoff and HV fallbacks charged by the fault plane\n")
}
