// Long-horizon adversarial endurance rows: closed-loop clients with think
// time across hundreds of tenants drive a served MS-MISO system while the
// SiteViewRot fault site silently corrupts resident views and the
// background integrity scrubber detects and self-heals them under live
// traffic. The run spans at least three reorganization cycles; at exit the
// checks prove that every injected corruption was detected and repaired
// (or had legitimately left the design), that a final verification pass
// finds zero violations, and that goodput stayed within bound of an
// identical rot-free control row. Written as BENCH_endurance.json by
// misobench -mode endurance -out <dir>.
package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"miso/internal/audit"
	"miso/internal/faults"
	"miso/internal/multistore"
	"miso/internal/serve"
	"miso/internal/views"
	"miso/internal/workload"
)

// RotStats is what a scrubbed row's exit audit found: corruptions
// injected and the distinct views they hit, how many of those views a
// checksum repair reached and how many are unaccounted for, the
// unrepaired findings the final pass cannot settle, and the violations of
// that independent final pass.
type RotStats struct {
	Injected        int `json:"injected"`
	Distinct        int `json:"distinct_views"`
	Repaired        int `json:"repaired_views"`
	Unaccounted     int `json:"unaccounted"`
	Unsettled       int `json:"unsettled"`
	FinalViolations int `json:"final_violations"`
}

// exitAudit runs after a scrubbed row: one more repair pass catches rot
// injected after the scrubber's last look (or views a reorg moved
// mid-pass), then an independent verification pass, and the rot log is
// reconciled with what the scrubber repaired.
func (o *Outcome) exitAudit(sys *multistore.System, scrub *audit.Scrubber) error {
	if _, err := scrub.RunOnce(); err != nil {
		return fmt.Errorf("exit repair pass: %w", err)
	}
	final, err := audit.RunOnce(sys, false)
	if err != nil {
		return fmt.Errorf("verification pass: %w", err)
	}
	sr := scrub.Report()
	// Which rotted names were repaired at least once? Anything corrupt AND
	// resident would have failed the verification pass above.
	repaired := map[string]bool{}
	for _, v := range sr.Violations {
		if v.Repaired && v.Invariant == multistore.InvChecksum {
			repaired[v.View] = true
		}
	}
	rot := &RotStats{Injected: len(sys.RotLog()), Repaired: len(repaired), FinalViolations: len(final)}
	rot.Distinct, rot.Unaccounted = unaccountedRot(sys, repaired)
	rot.Unsettled = unsettledViolations(sr.Violations)
	if sr.DroppedViolations > 0 {
		// The report's list is truncated: fall back to the strict count.
		rot.Unsettled = sys.Metrics().AuditUnrepaired
	}
	if sr.Fatal != nil {
		// A torn journal stopped the scrubber: nothing after it was audited.
		rot.Unsettled++
	}
	o.Rot = rot
	return nil
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

// enduranceRows is the rot-free control and the rot run: 200 tenants
// (-sessions), a horizon of 3 reorganization cycles and 150 served queries
// (-endurancequeries) capped at 3 minutes (-dur). The control differs only
// in the rot rate: same tenants, same horizon, scrubber still running (its
// cost is present in both).
func enduranceRows(c Config, sh Shape) (layout, []row, error) {
	tenants, minQueries := orDefault(sh.Sessions, 200), orDefault(sh.Queries, 150)
	const minReorgs = 3
	sqls := workload.SQLs()
	endurance := func(name string, rotRate float64) row {
		return row{
			name: name, desc: fmt.Sprintf("%d closed-loop tenants, SiteViewRot at %.2f, repairing scrubber", tenants, rotRate),
			mutate: func(mc *multistore.Config) {
				mc.Faults = faults.Profile{}.With(faults.SiteViewRot, rotRate)
				mc.FaultSeed = 11
				mc.CheckpointEvery = 8
				// Hedge-triggering slow shapes only matter if hedging is armed.
				mc.Hedge = multistore.HedgeConfig{Enabled: true}
			},
			serve: serve.Config{Workers: 4, QueueDepth: 16, QueryTimeout: 20 * time.Second, DrainTimeout: 2 * time.Second},
			phases: []phase{{name: "closed-loop", closed: closedLoop{
				clients: tenants, think: 25 * time.Millisecond, seed: 11,
				next: func(c, i int, rng *rand.Rand) request {
					return request{tenant: fmt.Sprintf("t%03d", c), sql: adversarialSQL(rng, sqls, c+i)}
				},
			}}},
			scrub:   2 * time.Millisecond,
			horizon: &horizon{reorgs: minReorgs, queries: minQueries, max: orDefault(sh.Dur, 3*time.Minute)},
		}
	}
	rot := endurance("rot", 0.08)
	rot.twin = "control"
	rot.checks = []check{
		{"horizon", func(o *Outcome) (bool, string) {
			return !o.TimedOut && o.System.Reorgs >= minReorgs && o.Serve.Completed >= minQueries,
				fmt.Sprintf("%d reorg cycles (need >= %d), %d served (need >= %d), timed out: %v",
					o.System.Reorgs, minReorgs, o.Serve.Completed, minQueries, o.TimedOut)
		}},
		{"rot-exercised", func(o *Outcome) (bool, string) {
			return o.Rot.Injected > 0, fmt.Sprintf("%d corruptions injected across %d views", o.Rot.Injected, o.Rot.Distinct)
		}},
		{"rot-repaired", func(o *Outcome) (bool, string) {
			r := o.Rot
			return r.Unaccounted == 0, fmt.Sprintf("%d distinct rotted views: %d repaired online, %d left the design, %d unaccounted",
				r.Distinct, r.Repaired, r.Distinct-r.Repaired-r.Unaccounted, r.Unaccounted)
		}},
		{"zero-unrepaired", func(o *Outcome) (bool, string) {
			return o.Rot.Unsettled == 0, fmt.Sprintf("%d unrepaired violations at exit (%d unrepaired when found, the rest settled by the final pass)",
				o.Rot.Unsettled, o.System.AuditUnrepaired)
		}},
		finalPassClean,
		{"goodput-bound", func(o *Outcome) (bool, string) {
			g, cg := o.Phases[0].GoodputQPS, o.twin.Phases[0].GoodputQPS
			ratio := 0.0
			if cg > 0 {
				ratio = g / cg
			}
			return cg <= 0 || ratio >= 0.5, fmt.Sprintf("rot goodput %.1f q/s vs control %.1f q/s (need ratio >= 0.5, got %.2f)", g, cg, ratio)
		}},
	}
	title := fmt.Sprintf("endurance run (%s)", c.host())
	return layout{title: title}, []row{endurance("control", 0), rot}, nil
}

// finalPassClean is the check of every scrubbed row: the independent
// verification pass after the exit repair pass found nothing.
var finalPassClean = check{"final-pass-clean", func(o *Outcome) (bool, string) {
	return o.Rot.FinalViolations == 0, fmt.Sprintf("%d violations on the independent verification pass", o.Rot.FinalViolations)
}}
