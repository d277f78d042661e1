// Governance rows: the query-level resource-governance plane under load.
// The cancellation storm measures cancel-to-idle latency (how long a
// canceled query keeps a serving worker busy), the panic row proves
// injected worker panics are contained to single-query failures while
// concurrent queries keep producing byte-identical results, the memory row
// exercises per-query budget aborts, and the identity pair pins the
// governance plane's zero-cost-when-disabled promise: with no limits, no
// exec faults and background contexts, the 32-query workload's results and
// state digest are byte-identical whether or not a ledger is attached.
// misobench -mode benchgov -out <dir> writes BENCH_governance.json.
package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"miso/internal/faults"
	"miso/internal/multistore"
	"miso/internal/serve"
	"miso/internal/workload"
)

// governProfile arms the exec-plane fault sites for one chaos sweep rate.
// Panic and memory-pressure draws happen once per morsel/operator — two
// orders of magnitude more often than the store-level sites — so their
// rates are scaled down to keep per-query survival comparable; slow
// morsels are harmless stalls and run at the full rate.
func governProfile(rate float64) faults.Profile {
	return faults.Profile{}.
		With(faults.SiteExecPanic, rate/10).
		With(faults.SiteMemPressure, rate/10).
		With(faults.SiteSlowMorsel, rate)
}

// armed returns the builder mutation that replaces the uniform fault rate
// with an explicit profile under a fixed seed.
func armed(prof faults.Profile, seed int64) func(*multistore.Config) {
	return func(mc *multistore.Config) {
		mc.Faults = prof
		mc.FaultSeed = seed
	}
}

// governServe is the frontend of the storm and panic rows.
var governServe = serve.Config{Workers: 2, QueueDepth: 64}

// cancelStorm is the governed closed loop: sessions×queries submissions,
// three of every four query contexts canceled a few milliseconds in.
func cancelStorm(sessions, queries int) phase {
	sqls := workload.SQLs()
	return phase{name: "storm", closed: closedLoop{clients: sessions, count: queries, next: func(session, i int, _ *rand.Rand) request {
		k := session*queries + i
		ctx, cancel := context.WithCancel(context.Background())
		q := request{sql: sqls[k%len(sqls)], ctx: ctx, release: cancel}
		if k%4 != 3 {
			// Staggered cancellation: mid-flight for queries already
			// executing, pre-admission for queued ones.
			timer := time.AfterFunc(time.Duration(1+k%5)*time.Millisecond, cancel)
			q.release = func() { timer.Stop(); cancel() }
		}
		return q
	}}}
}

// governRows is the governance pipeline.
func governRows(c Config, _ Shape) (layout, []row, error) {
	sqls := workload.SQLs()
	const memLimit = 64 << 10
	rows := []row{{
		// Every morsel stalls (up to 2ms), so queries are long enough that
		// mid-flight cancellation is the common case.
		name: "storm", desc: "cancellation storm over a slow-morsel-stretched system",
		mutate: armed(faults.Profile{}.With(faults.SiteSlowMorsel, 1), 42),
		serve:  governServe, phases: []phase{cancelStorm(4, 8)},
		checks: []check{{"cancel-p99-bounded", func(o *Outcome) (bool, string) {
			return o.CancelP99Ms <= 1000, fmt.Sprintf("cancel-to-idle p99 %.2fms (bound 1000ms; p50 %.2fms, max %.2fms)", o.CancelP99Ms, o.CancelP50Ms, o.CancelMaxMs)
		}}},
	}, {
		// HV-ONLY retains nothing between queries, so every query's result
		// is position-independent: the fault-free baseline's answers are
		// the ground truth for any concurrent interleaving of the panic row.
		name: "panic-baseline", desc: "fault-free answers the panic row is held to",
		variant: multistore.VariantHVOnly, mutate: armed(faults.Profile{}, 42),
		phases: []phase{sequential(sqls)}, pin: true,
	}, {
		name: "panic", desc: "worker panics injected under two sessions",
		variant: multistore.VariantHVOnly, mutate: armed(faults.Profile{}.With(faults.SiteExecPanic, 0.01), 42),
		serve: governServe, pin: true, twin: "panic-baseline",
		// Two sessions split the workload between them, odd and even.
		phases: []phase{{name: "panics", closed: closedLoop{clients: 2, count: len(sqls) / 2, next: func(session, i int, _ *rand.Rand) request {
			return request{sql: sqls[session+2*i]}
		}}}},
		checks: []check{{"panic-contained", func(o *Outcome) (bool, string) {
			m := o.Serve
			return m.Completed+m.PanicsContained == m.Submitted,
				fmt.Sprintf("%d submitted: %d completed + %d panics contained, none escaped", m.Submitted, m.Completed, m.PanicsContained)
		}}, {"panic-survivors-identical", func(o *Outcome) (bool, string) {
			return o.AnswersMatch, fmt.Sprintf("every surviving answer equals the fault-free baseline's: %v", o.AnswersMatch)
		}}},
	}, {
		name: "mem", desc: fmt.Sprintf("memory budget of %d B/query, far below any working set", memLimit),
		mutate: func(mc *multistore.Config) { mc.MemLimitBytes = memLimit },
		phases: []phase{sequential(sqls[:8])},
		checks: []check{{"mem-aborted", func(o *Outcome) (bool, string) {
			sub := o.Phases[0].Submitted
			return o.System.MemAborted == sub, fmt.Sprintf("%d submitted, %d aborted over budget", sub, o.System.MemAborted)
		}}},
	}, {
		name: "plain", desc: "the workload with no governance at all",
		phases: []phase{sequential(sqls)},
	}, {
		// The twin differs only in the ledger attached at an unreachable
		// limit.
		name: "governed", desc: "the workload with a ledger at an unreachable limit",
		mutate: func(mc *multistore.Config) { mc.MemLimitBytes = 1 << 40 },
		phases: []phase{sequential(sqls)}, twin: "plain",
		checks: []check{{"digest-identical", func(o *Outcome) (bool, string) {
			return o.Digest == o.twin.Digest, fmt.Sprintf("governance-off identity: plain %s vs governed %s", o.twin.Digest, o.Digest)
		}}},
	}}
	return layout{title: fmt.Sprintf("governance pipeline (%s)", c.host())}, rows, nil
}
