package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"miso/internal/faults"
	"miso/internal/multistore"
	"miso/internal/serve"
	"miso/internal/workload"
)

// The chaos sweep (robustness extension, not in the paper): the 32-query
// workload replayed under increasing uniform failure rates, comparing the
// tuned system against the untuned multistore baseline. At every rate the
// same six rows run: both variants sequentially ("seq"), the tuned system
// through the concurrent serving frontend ("serve"), with the crash plane
// armed ("crash"), with the exec-plane governance sites armed under a
// cancellation storm ("govern"), and with bit rot and the repairing
// scrubber ("audit"). All rows share one seed; the sequential rows are
// byte-reproducible, the serve and govern rows are reproducible up to
// worker interleaving.

// ChaosRates are the uniform per-operation failure rates swept.
var ChaosRates = []float64{0, 0.01, 0.02, 0.05, 0.10}

// chaosSeed is the injector seed every sweep row runs under.
const chaosSeed = 42

// chaosServe shapes the serve rows: more concurrent sessions than
// worker-pool-plus-queue capacity, so admission control has real work to
// do, without drowning the sweep in wall time.
var chaosServe = serve.Config{Workers: 2, QueueDepth: 2}

const chaosServeSessions = 6

// soakRows is the concurrent-serving soak: 8 sessions by default
// (-sessions), each replaying the full workload once against one server
// over a single MS-MISO system. Errors other than sheds and governed
// abandons fail the run, as does a breach of the serving metrics'
// accounting or of the backend's catalog invariants at exit.
func soakRows(c Config, sh Shape) (layout, []row, error) {
	sc := serve.Config{Workers: 4, QueueDepth: 8, QueryTimeout: 30 * time.Second}
	sessions := orDefault(sh.Sessions, 8)
	r := row{name: "soak", desc: fmt.Sprintf("%d sessions, %d workers, queue %d, %s deadline, uniform fault rate %.2f",
		sessions, sc.Workers, sc.QueueDepth, sc.QueryTimeout, c.FaultRate),
		serve: sc, phases: []phase{soakPhase(sessions)}}
	return layout{title: fmt.Sprintf("serving soak (%s)", c.host())}, []row{r}, nil
}

// soakPhase is the serving soak's closed loop: sessions clients each
// submitting the workload once, starting at their own offset.
func soakPhase(sessions int) phase {
	sqls := workload.SQLs()
	return phase{name: "soak", closed: closedLoop{clients: sessions, count: len(sqls), next: func(session, i int, _ *rand.Rand) request {
		return request{sql: sqls[(session+i)%len(sqls)]}
	}}}
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

// completed is the check of every sequential sweep row: the whole
// workload produced a result.
var completed = check{"completed", func(o *Outcome) (bool, string) {
	n := len(workload.SQLs())
	return o.System.Queries == n, fmt.Sprintf("%d of %d queries completed", o.System.Queries, n)
}}

// chaosRows builds the six rows at every rate. The crash row's rate-0 run
// doubles as the journaling-overhead control: its TTI must equal the rate-0
// seq row's (journaling charges no simulated time).
func chaosRows(Config, Shape) (layout, []row, error) {
	sqls := workload.SQLs()
	var rows []row
	for _, rate := range ChaosRates {
		at := func(kind string, v multistore.Variant, mutate func(*multistore.Config)) row {
			return row{name: fmt.Sprintf("%s %s %.0f%%", kind, v, 100*rate), desc: kind, variant: v, rate: rate, mutate: mutate,
				phases: []phase{sequential(sqls)}, checks: []check{completed}}
		}
		uniform := armed(faults.Uniform(rate), chaosSeed)
		basic, miso := at("seq", multistore.VariantMSBasic, uniform), at("seq", multistore.VariantMSMiso, uniform)
		served := at("serve", multistore.VariantMSMiso, uniform)
		served.serve, served.phases = chaosServe, []phase{soakPhase(chaosServeSessions)}
		served.checks = []check{{"served", func(o *Outcome) (bool, string) {
			return o.Serve.Completed > 0, fmt.Sprintf("%d of %d submissions completed", o.Serve.Completed, o.Serve.Submitted)
		}}}
		crash := at("crash", multistore.VariantMSMiso, durable(chaosCrashProfile(rate), chaosSeed))
		crash.checks = append(crash.checks, crashChecks...)
		govern := at("govern", multistore.VariantMSMiso, armed(governProfile(rate), chaosSeed))
		govern.serve, govern.phases, govern.checks = governServe, []phase{cancelStorm(4, 16)}, nil
		// SiteViewRot corrupts resident views at the sweep rate while the
		// scrubber repairs; the row must end clean.
		audited := at("audit", multistore.VariantMSMiso, durable(faults.Profile{}.With(faults.SiteViewRot, rate), chaosSeed))
		audited.scrub = time.Millisecond
		audited.checks = append(audited.checks, finalPassClean)
		rows = append(rows, basic, miso, served, crash, govern, audited)
	}
	lay := layout{
		title: fmt.Sprintf("Chaos sweep: uniform failure rate vs TTI (seed %d)", chaosSeed),
		header: fmt.Sprintf("%6s %-10s %-6s %12s %12s %8s %8s %6s %6s %6s %8s %6s %6s %6s %6s %8s %6s %6s %6s",
			"rate", "variant", "mode", "TTI(s)", "recovery(s)", "rec%", "retries", "fallbk", "sheds",
			"recov", "replayed", "quarn", "cancel", "memab", "panics", "cp99ms", "vdet", "vrep", "vunrep"),
		line: func(o *Outcome) string {
			m, s := o.System, o.Serve
			pct := 0.0
			if m.TTI() > 0 {
				pct = 100 * m.Recovery / m.TTI()
			}
			return fmt.Sprintf("%5.0f%% %-10s %-6s %12.1f %12.1f %7.1f%% %8d %6d %6d %6d %8d %6d %6d %6d %6d %8.1f %6d %6d %6d",
				100*o.Rate, o.Variant, o.Desc, m.TTI(), m.Recovery, pct,
				m.Retries, m.Fallbacks, s.Sheds,
				o.Recovery.Recoveries, o.Recovery.Replayed, o.Recovery.Quarantined,
				s.Canceled, s.Aborted, s.PanicsContained, o.CancelP99Ms,
				m.AuditViolations, m.AuditRepaired, m.AuditUnrepaired)
		},
		footer: fmt.Sprintf("all %d-query sequential runs completed under every rate; serve rows add\n", len(sqls)) +
			"admission sheds under concurrent sessions; crash rows add process kills\n" +
			"survived via checkpoint+WAL recovery (recoveries, replayed records,\n" +
			"quarantined views); govern rows add caller cancellation,\n" +
			"memory-budget aborts and contained worker panics with the p99\n" +
			"cancel-to-idle latency; audit rows add bit-rot corruptions detected,\n" +
			"self-healed and left unrepaired by the background integrity scrubber,\n" +
			"on top of the retries, backoff and HV fallbacks charged by the fault plane\n",
	}
	return lay, rows, nil
}
