// Governance experiments: the query-level resource-governance plane under
// load. The cancellation storm measures cancel-to-idle latency (how long a
// canceled query keeps a serving worker busy), the panic run proves
// injected worker panics are contained to single-query failures while
// concurrent queries keep producing byte-identical results, the memory run
// exercises per-query budget aborts, and the identity check pins the
// governance plane's zero-cost-when-disabled promise: with no limits, no
// exec faults and background contexts, the 32-query workload's results and
// state digest are byte-identical whether or not a ledger is attached.
// BenchGovern writes the machine-readable report CI uploads as
// BENCH_governance.json.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"time"

	"miso/internal/faults"
	"miso/internal/govern"
	"miso/internal/multistore"
	"miso/internal/serve"
	"miso/internal/storage"
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
// with an explicit (exec-plane) profile under a fixed seed.
func armed(prof faults.Profile, seed int64) func(*multistore.Config) {
	return func(mc *multistore.Config) {
		mc.Faults = prof
		mc.FaultSeed = seed
	}
}

// governStorm drives one governed serving run: sessions×queries
// submissions against srv, canceling three of every four query contexts a
// few milliseconds in. It returns the closed server's counters; any hard
// (non-governed) error fails it.
func governStorm(sys *multistore.System, srv *serve.Server, sessions, queries int) (serve.Metrics, error) {
	sqls := workload.SQLs()
	d := newDriver(srv)
	d.closed(closedLoop{clients: sessions, count: queries, next: func(session, i int, _ *rand.Rand) request {
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
	}})
	return d.finish(sys)
}

// governChaosPoint is the chaos sweep's govern-mode row: the system behind
// the serving frontend with the exec-plane fault sites (contained panics,
// injected memory pressure, slow morsels) armed at the sweep rate and the
// cancellation pattern of governStorm.
func governChaosPoint(c Config, v multistore.Variant) (ChaosPoint, error) {
	sys, err := c.newSystem(v, armed(governProfile(c.FaultRate), c.FaultSeed))
	if err != nil {
		return ChaosPoint{}, err
	}
	srv := serve.NewServer(serve.Config{Workers: chaosServeWorkers, QueueDepth: 64}, sys)
	m, err := governStorm(sys, srv, 4, 16)
	if err != nil {
		return ChaosPoint{}, err
	}
	p := chaosPoint(sys.Metrics())
	p.fromServe(m)
	p.Canceled, p.MemAborted, p.PanicsContained = m.Canceled, m.Aborted, m.PanicsContained
	p.CancelP99Ms = float64(govern.Percentile(srv.CancelLatencies(), 99)) / 1e6
	return p, nil
}

// GovernReport is the machine-readable governance report
// (BENCH_governance.json in CI).
type GovernReport struct {
	Host

	// Cancellation storm: submissions against a slow-morsel-stretched
	// system with three of every four query contexts canceled mid-flight,
	// and the measured cancel-to-idle latency distribution.
	StormSubmitted   int     `json:"storm_submitted"`
	StormCompleted   int     `json:"storm_completed"`
	StormCanceled    int     `json:"storm_canceled"`
	CancelP50Ms      float64 `json:"cancel_p50_ms"`
	CancelP99Ms      float64 `json:"cancel_p99_ms"`
	CancelMaxMs      float64 `json:"cancel_max_ms"`
	CancelBoundMs    float64 `json:"cancel_bound_ms"`
	CancelP99Bounded bool    `json:"cancel_p99_bounded"`

	// Panic containment: HV-ONLY workload with worker panics injected;
	// every failure must wrap govern.ErrInternal and every success must be
	// byte-identical to the fault-free baseline.
	PanicSubmitted          int  `json:"panic_submitted"`
	PanicContained          int  `json:"panic_contained"`
	PanicCompleted          int  `json:"panic_completed"`
	PanicSurvivorsIdentical bool `json:"panic_survivors_identical"`
	PanicProcessSurvived    bool `json:"panic_process_survived"`

	// Memory budget: queries run under a deliberately tiny per-query
	// limit must abort with govern.ErrMemLimit.
	MemLimitBytes int64 `json:"mem_limit_bytes"`
	MemSubmitted  int   `json:"mem_submitted"`
	MemAborted    int   `json:"mem_aborted"`

	// Governance-off identity: result + state digests of the 32-query
	// workload with no governance at all versus with a ledger attached at
	// an unreachable limit. Equal digests prove the plane is free when
	// idle.
	DigestPlain     string `json:"digest_plain"`
	DigestGoverned  string `json:"digest_governed"`
	DigestIdentical bool   `json:"digest_identical"`
}

// WriteText renders the report as a human-readable summary.
func (r *GovernReport) WriteText(w io.Writer) {
	fprintf(w, "governance pipeline (%s/%s, %d CPU, scale=%s)\n", r.GOOS, r.GOARCH, r.NumCPU, r.Scale)
	fprintf(w, "cancellation storm: %d submitted, %d completed, %d canceled\n",
		r.StormSubmitted, r.StormCompleted, r.StormCanceled)
	fprintf(w, "  cancel-to-idle latency p50 %.2fms  p99 %.2fms  max %.2fms  (bound %.0fms: %v)\n",
		r.CancelP50Ms, r.CancelP99Ms, r.CancelMaxMs, r.CancelBoundMs, r.CancelP99Bounded)
	fprintf(w, "panic containment: %d submitted, %d panics contained, %d completed, survivors identical %v, process survived %v\n",
		r.PanicSubmitted, r.PanicContained, r.PanicCompleted, r.PanicSurvivorsIdentical, r.PanicProcessSurvived)
	fprintf(w, "memory budget (%d B/query): %d submitted, %d aborted over budget\n",
		r.MemLimitBytes, r.MemSubmitted, r.MemAborted)
	fprintf(w, "governance-off identity: plain %s vs governed %s: identical %v\n",
		r.DigestPlain, r.DigestGoverned, r.DigestIdentical)
}

// workloadDigest runs every workload query on sys through run and folds
// the result tables and final state digest into one order-sensitive
// digest.
func workloadDigest(sys *multistore.System, run func(sql string) (*multistore.QueryReport, error)) (uint64, error) {
	d := storage.HashSeed
	for i, sql := range workload.SQLs() {
		rep, err := run(sql)
		if err != nil {
			return 0, fmt.Errorf("experiments: identity query %d: %w", i, err)
		}
		d = d*1099511628211 ^ storage.ChecksumTable(rep.Result)
	}
	return d*1099511628211 ^ sys.StateDigest(), nil
}

// BenchGovern runs the governance pipeline: the cancellation storm, the
// panic-containment run, the memory-budget run, and the governance-off
// identity check.
func BenchGovern(c Config) (*GovernReport, error) {
	rep := &GovernReport{Host: c.host()}

	// 1. Cancellation storm: every morsel stalls (up to 2ms), so queries
	// are long enough that mid-flight cancellation is the common case.
	stormSys, err := c.newSystem(multistore.VariantMSMiso,
		armed(faults.Profile{}.With(faults.SiteSlowMorsel, 1), 42))
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(serve.Config{Workers: 2, QueueDepth: 64}, stormSys)
	m, err := governStorm(stormSys, srv, 4, 8)
	if err != nil {
		return nil, fmt.Errorf("experiments: cancellation storm: %w", err)
	}
	lat := srv.CancelLatencies()
	rep.StormSubmitted = m.Submitted
	rep.StormCompleted = m.Completed
	rep.StormCanceled = m.Canceled
	rep.CancelP50Ms = float64(govern.Percentile(lat, 50)) / 1e6
	rep.CancelP99Ms = float64(govern.Percentile(lat, 99)) / 1e6
	rep.CancelMaxMs = float64(govern.Percentile(lat, 100)) / 1e6
	rep.CancelBoundMs = 1000
	rep.CancelP99Bounded = rep.CancelP99Ms <= rep.CancelBoundMs

	// 2. Panic containment. HV-ONLY retains nothing between queries, so
	// every query's result is position-independent: the fault-free
	// baseline digests are the ground truth for any concurrent
	// interleaving of the faulted run.
	sqls := workload.SQLs()
	baseSys, err := c.newSystem(multistore.VariantHVOnly, armed(faults.Profile{}, 42))
	if err != nil {
		return nil, err
	}
	survivors := newDigestCheck()
	for _, sql := range sqls {
		r, err := baseSys.Run(sql)
		if err != nil {
			return nil, fmt.Errorf("experiments: panic baseline: %w", err)
		}
		survivors.observe(sql, storage.ChecksumTable(r.Result))
	}
	panicSys, err := c.newSystem(multistore.VariantHVOnly,
		armed(faults.Profile{}.With(faults.SiteExecPanic, 0.01), 42))
	if err != nil {
		return nil, err
	}
	psrv := serve.NewServer(serve.Config{Workers: 2, QueueDepth: 64}, panicSys)
	pd := newDriver(psrv)
	pd.onResult = func(_ int, q request, r *multistore.QueryReport, err error) error {
		switch {
		case err == nil:
			survivors.observe(q.sql, storage.ChecksumTable(r.Result))
		case !errors.Is(err, govern.ErrInternal):
			// Only a contained panic (counted by the server) may fail a
			// query here.
			return fmt.Errorf("experiments: panic run: %w", err)
		}
		return nil
	}
	// Two sessions split the workload between them, odd and even.
	pd.closed(closedLoop{clients: 2, count: len(sqls) / 2, next: func(session, i int, _ *rand.Rand) request {
		return request{sql: sqls[session+2*i]}
	}})
	pm, err := pd.finish(panicSys)
	if err != nil {
		return nil, err
	}
	rep.PanicSubmitted = pm.Submitted
	rep.PanicContained = pm.PanicsContained
	rep.PanicCompleted = pm.Completed
	rep.PanicSurvivorsIdentical = survivors.match
	rep.PanicProcessSurvived = true // reaching here means no panic escaped

	// 3. Memory budget: a limit far below any query's working set.
	rep.MemLimitBytes = 64 << 10
	memSys, err := c.newSystem(multistore.VariantMSMiso, func(mc *multistore.Config) {
		mc.MemLimitBytes = rep.MemLimitBytes
	})
	if err != nil {
		return nil, err
	}
	for i, sql := range sqls[:8] {
		rep.MemSubmitted++
		if _, err := memSys.RunContext(context.Background(), sql); err != nil &&
			!errors.Is(err, govern.ErrMemLimit) {
			return nil, fmt.Errorf("experiments: mem run query %d: %w", i, err)
		}
	}
	rep.MemAborted = memSys.Metrics().MemAborted

	// 4. Governance-off identity: the twin differs only in the ledger
	// attached at an unreachable limit.
	plainSys, err := c.newSystem(multistore.VariantMSMiso, nil)
	if err != nil {
		return nil, err
	}
	dPlain, err := workloadDigest(plainSys, plainSys.Run)
	if err != nil {
		return nil, err
	}
	govSys, err := c.newSystem(multistore.VariantMSMiso, func(mc *multistore.Config) {
		mc.MemLimitBytes = 1 << 40
	})
	if err != nil {
		return nil, err
	}
	dGov, err := workloadDigest(govSys, func(sql string) (*multistore.QueryReport, error) {
		return govSys.RunContext(context.Background(), sql)
	})
	if err != nil {
		return nil, err
	}
	rep.DigestPlain = fmt.Sprintf("%016x", dPlain)
	rep.DigestGoverned = fmt.Sprintf("%016x", dGov)
	rep.DigestIdentical = dPlain == dGov
	return rep, nil
}
