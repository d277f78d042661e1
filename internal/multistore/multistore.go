// Package multistore wires the substrates into the complete system of the
// paper — catalog, HV and DW stores, transfer layer, multistore query
// optimizer, history window, and MISO tuner — and implements the execution
// layer that runs multistore plans (executing HV parts, migrating working
// sets into DW temp space, resuming in DW) plus every system variant the
// evaluation compares: HV-ONLY, DW-ONLY, MS-BASIC, HV-OP, MS-MISO, MS-OFF,
// MS-LRU, and MS-ORA. Every query takes one path (query.go): a prologue,
// the HV step, the cut migration and one booking, with the variants as
// pre- and post-steps around it (variants.go). All times are simulated
// seconds, summed into the query's report and from there into the TTI
// breakdown.
package multistore

import (
	"context"
	"fmt"
	"sync"

	"miso/internal/core"
	"miso/internal/durability"
	"miso/internal/dw"
	"miso/internal/exec"
	"miso/internal/faults"
	"miso/internal/govern"
	"miso/internal/history"
	"miso/internal/hv"
	"miso/internal/logical"
	"miso/internal/optimizer"
	"miso/internal/stats"
	"miso/internal/storage"
	"miso/internal/views"
)

// Variant selects the system behavior under evaluation.
type Variant string

// The system variants of Section 5.
const (
	VariantHVOnly  Variant = "HV-ONLY"
	VariantDWOnly  Variant = "DW-ONLY"
	VariantMSBasic Variant = "MS-BASIC"
	VariantHVOp    Variant = "HV-OP"
	VariantMSMiso  Variant = "MS-MISO"
	VariantMSOff   Variant = "MS-OFF"
	VariantMSLru   Variant = "MS-LRU"
	VariantMSOra   Variant = "MS-ORA"
)

// The tuning window holds the last historyLen queries in epochs of
// epochLen (the paper's values).
const historyLen, epochLen = 6, 3

// Config assembles the full system configuration. The stores' and the
// transfer pipeline's calibration is the paper's testbed, fixed in their
// packages.
type Config struct {
	Variant Variant
	Tuner   core.Config

	// ReorgEvery triggers a reorganization phase every n queries
	// (MS-MISO / MS-ORA). The paper reorganizes every 1/10 of the
	// workload, i.e. every 3 queries for the 32-query workload. Zero
	// disables query-based reorganization; the paper also allows time-
	// or activity-based invocation, which callers implement by invoking
	// Reorganize directly (e.g. when the system is idle).
	ReorgEvery int
	// Decay weights the older epochs of the tuning window down.
	Decay float64

	// Faults is the fault-injection profile (all-zero disables injection,
	// making the failure plane strictly additive: timings are then
	// byte-identical to a system with no fault plane at all).
	Faults faults.Profile
	// FaultSeed seeds the deterministic injector; a fixed (profile, seed)
	// pair reproduces the exact same failure sequence.
	FaultSeed int64
	// Retry is the recovery policy for injected failures; the zero value
	// means faults.DefaultRetry.
	Retry faults.RetryPolicy

	// CheckpointEvery enables the durability plane: every catalog/design
	// mutation is journaled to a write-ahead log and a full-state
	// checkpoint is taken every n completed operations (queries, updates,
	// explicit Reorganize calls). Zero disables durability entirely —
	// journaling charges no simulated time either way, so enabling it
	// never changes the TTI breakdown of a fault-free run.
	CheckpointEvery int

	// ExecWorkers bounds both stores' execution worker pools
	// (exec.Env.Workers): 0 means GOMAXPROCS (the default), n > 0 means
	// n workers. Results — tables, digests, TTI — are byte-identical at
	// every setting; only real wall-clock changes.
	ExecWorkers int

	// MemLimitBytes caps the execution memory of a single query: extract
	// buffers, hash partitions, sort keys, and materialized intermediates
	// are charged against a per-query ledger, and a query that exceeds the
	// limit aborts with an error wrapping govern.ErrMemLimit (its accrued
	// work charged to Recovery). Zero disables the limit: no ledger is
	// attached and execution is byte-identical to a system with no memory
	// governance.
	MemLimitBytes int64

	// Reuse enables the cross-query reuse plane: full-query answers and
	// cut subresults kept as result views (see ReuseConfig). Disabled runs
	// take the exact pre-reuse code path: results and StateDigest are
	// byte-identical to a system without the plane.
	Reuse ReuseConfig
}

// DefaultConfig returns the paper's setup for the given variant; view
// storage and transfer budgets must still be set (see SetBudgets).
func DefaultConfig(v Variant) Config {
	return Config{
		Variant:    v,
		ReorgEvery: 3,
		Decay:      0.5,
	}
}

// SetBudgets sets the view storage budgets as multiples of each store's
// base-data size — HV's base is the full logs, DW's is the relevant
// portion, 1/10th of the logs as in the paper — and the transfer budget in
// bytes.
func (c *Config) SetBudgets(cat *storage.Catalog, multiple float64, transferBytes int64) {
	base := cat.TotalLogicalBytes()
	c.Tuner.Bh = int64(multiple * float64(base))
	c.Tuner.Bd = int64(multiple * float64(base) / 10)
	c.Tuner.Bt = transferBytes
}

// Metrics is the TTI breakdown: the cumulative simulated time of each
// component as defined in Section 5.1.
type Metrics struct {
	HVExe    float64
	DWExe    float64
	Transfer float64
	Tune     float64
	ETL      float64
	// Recovery is the time lost to injected failures and spent surviving
	// them: partial re-executions, backoff waits, rolled-back loads and
	// moves, and full-HV fallback runs. Zero when injection is disabled.
	Recovery float64
	Queries  int
	Reorgs   int
	// Fallbacks counts queries that completed in HV after their
	// multistore plan failed mid-flight.
	Fallbacks int
	// Retries counts injected failures survived anywhere in the system.
	Retries int
	// Canceled counts queries abandoned mid-plan by a deadline or
	// cancellation; their partial work is charged to Recovery and they do
	// not count toward Queries.
	Canceled int
	// MemAborted counts queries aborted for exceeding their per-query
	// memory limit; like canceled queries, their partial work is charged
	// to Recovery.
	MemAborted int
	// PanicsContained counts queries that failed because a worker panic was
	// caught and converted to a typed error instead of crashing the
	// process; their partial work is charged to Recovery.
	PanicsContained int
	// Degraded counts queries run through RunDegraded, the forced HV-only
	// entry point. They complete and count toward Queries; their time is
	// charged to HVExe like any HV execution.
	Degraded int
	// Quarantined counts views removed from the design instead of being
	// served because their content failed its checksum and could not be
	// recomputed. Quarantine work is charged to Recovery.
	Quarantined int
	// AuditViolations counts integrity violations detected by the online
	// audit plane (AuditViews/AuditInvariants): checksum mismatches,
	// disjointness or budget breaks, WAL inconsistencies.
	// AuditRepaired counts violations self-healed online (views recomputed
	// through the HV fallback path, budgets evicted back under limit,
	// durable payloads re-journaled); AuditUnrepaired counts violations
	// that could only be quarantined or reported. All three are excluded
	// from StateDigest: the scrubber runs on a wall-clock schedule, and an
	// audit-disabled run must stay byte-identical to a system with no
	// audit plane at all.
	AuditViolations int
	AuditRepaired   int
	AuditUnrepaired int
	// The reuse-plane counters below depend on cache residency, so — like
	// the audit counters — all four are excluded from StateDigest: a
	// reuse-disabled run stays byte-identical to a system with no reuse
	// plane at all. CacheHits counts queries answered from a result view;
	// CacheMisses counts the queries none answered, which executed (a
	// result view that failed its checksum is dropped and counts here);
	// SubplanHits counts HV cuts answered from result views. Piggybacked
	// is always zero (queries run one at a time, so a concurrent repeat is
	// a cache hit); the bench module reads it.
	CacheHits   int
	CacheMisses int
	Piggybacked int
	SubplanHits int
}

// TTI returns the total time-to-insight.
func (m Metrics) TTI() float64 {
	return m.HVExe + m.DWExe + m.Transfer + m.Tune + m.ETL + m.Recovery
}

// QueryReport records one query's execution.
type QueryReport struct {
	Seq int
	SQL string

	HVSeconds       float64
	TransferSeconds float64
	DWSeconds       float64
	TransferBytes   int64
	// RecoverySeconds is the time this query lost to injected failures
	// (partial re-executions, backoffs, aborted transfers, and — after a
	// mid-flight failure — the full-HV fallback run).
	RecoverySeconds float64
	// Retries counts injected failures this query survived.
	Retries int
	// FellBackToHV marks a query whose multistore plan failed mid-flight
	// (transfer aborted, damaged in flight, or DW side gave out) and that
	// completed by re-running entirely in HV.
	FellBackToHV bool
	// Degraded marks a query run through RunDegraded, the forced HV-only
	// entry point.
	Degraded bool
	// CacheHit marks a query answered from a result view; SubplanHits
	// counts HV cuts answered from result views. Both are
	// reuse-plane observability, excluded from StateDigest and the
	// durability journal. Piggybacked is always false (see
	// Metrics.Piggybacked).
	CacheHit    bool
	Piggybacked bool
	SubplanHits int

	// HVOps / DWOps count plan operators executed in each store.
	HVOps, DWOps int
	// HVOnly marks full-HV execution; BypassedHV marks full-DW execution
	// (every cut answered from DW-resident views).
	HVOnly     bool
	BypassedHV bool
	// UsedViews are the names of materialized views read.
	UsedViews []string
	// NewViews counts opportunistic views created.
	NewViews int
	// ResultRows is the query result cardinality.
	ResultRows int
	// Result is the actual result table (kept for verification and for
	// callers that want the data; result sets are small).
	Result *storage.Table
}

// Total returns the query's execution time (excluding tuning/ETL, which are
// system-level), including any recovery time it paid.
func (r *QueryReport) Total() float64 {
	return r.HVSeconds + r.TransferSeconds + r.DWSeconds + r.RecoverySeconds
}

// System is one running multistore instance. Methods that mutate state
// (Run, Reorganize, AppendToLog, ProvideFutureWorkload) are
// serialized by an internal mutex, so a System is safe to share across
// goroutines; queries still execute one at a time, as in the paper's
// single-stream evaluation. Every field below is shared state guarded by
// mu: what belongs to one query — its context, report and memory ledger —
// travels in a query value (query.go), never here.
type System struct {
	mu      sync.Mutex
	cfg     Config
	cat     *storage.Catalog
	builder *logical.Builder
	est     *stats.Estimator
	hv      *hv.Store
	dw      *dw.Store
	opt     *optimizer.Optimizer
	window  *history.Window
	inj     *faults.Injector
	execInj *faults.Injector
	retry   faults.RetryPolicy
	// onLedger, when set, sees every query's memory ledger as begin
	// opens it (a test hook; nil otherwise).
	onLedger func(*govern.Ledger)

	future  []history.Entry
	seq     int
	metrics Metrics
	reports reportLog

	etlDone  bool
	offTuned bool
	// offTargetHV / offTargetDW are MS-OFF's fixed design (view names).
	offTargetHV map[string]bool
	offTargetDW map[string]bool

	reorgLog []ReorgRecord

	// dur is the durability manager (nil when CheckpointEvery is 0);
	// jbase is the design as of the last journaled operation boundary,
	// diffed at each boundary to emit view admit/evict records.
	dur   *durability.Manager
	jbase map[string]placement

	// tomb holds quarantine tombstones: names the audit plane removed from
	// the design without repairing. The capture veto and MS-LRU passive
	// retention refuse a tombstoned name, so an evicted-then-quarantined
	// view cannot resurrect through opportunistic capture; the set is
	// cleared when a repair reinstates the name and wholesale at reorg
	// commit, when the tuner rebuilds the design from the surviving views.
	// Nil until the first audit quarantine, so audit-disabled runs never
	// allocate it.
	tomb map[string]bool
	// rotLog identifies the view copies corrupted by SiteViewRot, in
	// injection order.
	rotLog []RotRecord

	// results is the reuse plane's view set: full-query answers and cut
	// subresults, each a view over the raw subtree it answers (nil when
	// Config.Reuse is disabled — every reuse touchpoint is then a single
	// nil check). It belongs to no store's design.
	results *views.Set
	// appends counts the appends that added lines to a log (appendLocked).
	appends uint64

	// plans is the plan cache (choose), filled after planLogs appends.
	plans    map[*logical.Node]*planEntry
	planLogs uint64
}

// ReorgRecord summarizes one reorganization phase.
type ReorgRecord struct {
	// BeforeSeq is the sequence number of the query the reorganization
	// preceded.
	BeforeSeq int
	MovedToDW int
	MovedToHV int
	Dropped   int
	// Bytes is the total view bytes transferred (consumed from Bt).
	Bytes int64
	// Seconds is the movement time charged to TUNE.
	Seconds float64
	// FailedMoves counts moves that aborted or failed to commit and were
	// rolled back atomically: the view stayed in its source store and the
	// budget below was refunded.
	FailedMoves int
	// RefundedBytes is the Bt consumption returned by rolled-back moves.
	RefundedBytes int64
	// RecoverySeconds is the time this phase lost to injected failures
	// (retries, backoffs, and wasted work of rolled-back moves), charged
	// to the RECOVERY component rather than TUNE.
	RecoverySeconds float64
}

// New creates a system over the catalog.
func New(cfg Config, cat *storage.Catalog) *System {
	est := stats.NewEstimator(cat)
	h := hv.NewStore(cat, est, cfg.ExecWorkers)
	d := dw.NewStore(est, cfg.ExecWorkers)
	opt := optimizer.New(h, d, est)
	if cfg.Variant == VariantHVOnly || cfg.Variant == VariantHVOp {
		opt.DisableSplits = true
	}
	retry := cfg.Retry.OrDefault()
	inj := faults.NewInjector(cfg.Faults, cfg.FaultSeed) // nil for an all-zero profile
	h.SetFaults(inj, retry)
	// The exec-plane sites get their own injector: morsel workers draw from
	// it concurrently, which must never perturb the main injector's
	// globally-ordered deterministic draw sequence.
	execInj := faults.NewInjector(cfg.Faults.ExecOnly(), cfg.FaultSeed+1)
	h.SetExecFaults(execInj)
	d.SetExecFaults(execInj)
	s := &System{
		cfg:     cfg,
		cat:     cat,
		builder: logical.NewBuilder(cat),
		est:     est,
		hv:      h,
		dw:      d,
		opt:     opt,
		window:  history.NewWindow(historyLen, epochLen, cfg.Decay),
		inj:     inj,
		execInj: execInj,
		retry:   retry,
		plans:   map[*logical.Node]*planEntry{},
	}
	// Vh ∩ Vd = ∅: an HV fallback recomputing the definition of a view the
	// tuner moved to DW must not re-capture it on the HV side. A
	// quarantine-tombstoned name is vetoed for the same reason: capture
	// would resurrect a view the audit plane just removed. Commit runs on
	// the serialized query flow under s.mu, so reading s.tomb is safe.
	h.SetCaptureVeto(func(name string) bool {
		return d.Views.Has(name) || s.tombstoned(name)
	})
	if cfg.Reuse.Enabled {
		s.results = views.NewSet()
		// Costing sees the result views: a cut whose subresult is held
		// costs no HV time, steering plan choice toward reuse. The probe
		// reads the set under its own lock, which keeps plan costing safe
		// for the tuner's concurrent what-if workers; the set is cleared at
		// reorg start, so tuning probes an empty set and stays
		// deterministic.
		opt.ReuseProbe = func(n *logical.Node) bool {
			_, ok := s.results.ByID(n.ID())
			return ok
		}
	}
	if cfg.CheckpointEvery > 0 {
		s.dur = durability.NewManager(cfg.CheckpointEvery, durability.NewWAL(inj))
		// Boot checkpoint: recovery always has a base state to replay over.
		s.checkpointLocked()
		s.jbase = s.designMap()
	}
	return s
}

// Catalog returns the system's catalog.
func (s *System) Catalog() *storage.Catalog { return s.cat }

// HV returns the big data store.
func (s *System) HV() *hv.Store { return s.hv }

// DW returns the warehouse store.
func (s *System) DW() *dw.Store { return s.dw }

// SetExecStats attaches a per-operator execution timing collector to both
// stores (nil detaches). The collector is safe for concurrent use, so one
// can span a whole serving session.
func (s *System) SetExecStats(st *exec.Stats) {
	s.hv.SetExecStats(st)
	s.dw.SetExecStats(st)
}

// Optimizer returns the multistore query optimizer.
func (s *System) Optimizer() *optimizer.Optimizer { return s.opt }

// Metrics returns a snapshot of the accumulated TTI breakdown. It is safe
// to call while queries run; the snapshot is a consistent point-in-time
// copy.
func (s *System) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.metrics
}

// FaultInjector returns the system's fault injector (nil when injection
// is disabled); useful for inspecting injected-failure counts.
func (s *System) FaultInjector() *faults.Injector { return s.inj }

// Reports returns deep copies of the most recent per-query execution
// reports — all of them until reportCap queries completed, the last
// reportCap after that — in submission order: callers can neither observe
// nor cause races on internal mutation. Metrics().Queries is the count of
// completed queries; len(Reports()) stops at reportCap. Result tables are
// shared — they are write-once and never mutated after execution.
func (s *System) Reports() []*QueryReport {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reports.copies()
}

// ReorgLog returns a snapshot of the per-reorganization records.
func (s *System) ReorgLog() []ReorgRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]ReorgRecord(nil), s.reorgLog...)
}

// Design returns the current placement of views.
func (s *System) Design() optimizer.Design {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.design()
}

// design is Design without the lock, for callers already holding s.mu.
func (s *System) design() optimizer.Design {
	return optimizer.Design{HV: s.hv.Views, DW: s.dw.Views}
}

// ProvideFutureWorkload registers the upcoming queries. DW-ONLY uses it to
// scope the ETL, MS-OFF to tune once up-front, and MS-ORA as its oracle
// window. The journal does not carry the workload, so with durability on
// the call ends in a checkpoint.
func (s *System) ProvideFutureWorkload(sqls []string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.future = s.future[:0]
	for i, sql := range sqls {
		plan, err := s.builder.BuildSQL(sql)
		if err != nil {
			return fmt.Errorf("multistore: future query %d: %w", i+1, err)
		}
		s.future = append(s.future, history.Entry{Seq: i, SQL: sql, Plan: plan})
	}
	s.checkpointLocked()
	return nil
}

// Explain plans (but does not run) a query against the current design and
// returns a human-readable description of the chosen multistore plan.
func (s *System) Explain(sql string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	plan, err := s.builder.BuildSQL(sql)
	if err != nil {
		return "", err
	}
	mp, err := s.choose(plan, s.design())
	if err != nil {
		return "", err
	}
	return mp.Explain(), nil
}

// Run submits one query to the system and returns its report.
func (s *System) Run(sql string) (*QueryReport, error) {
	return s.RunContext(context.Background(), sql)
}

// RunContext submits one query under a context. When ctx is canceled or
// its deadline fires, the query is abandoned at the next phase boundary
// (between HV stages, before a transfer, before the DW part) and, inside
// the morsel engine, at the next morsel claim or merge poll: the work it
// had already paid for is charged to the RECOVERY TTI component, Canceled
// is incremented, and the returned error wraps ctx.Err(). A query whose
// context is already done before any work starts returns an error without
// charging anything. The same abandonment path books queries that exceed
// their memory budget (error wraps govern.ErrMemLimit, counted in
// MemAborted) and queries felled by a contained worker panic (error wraps
// govern.ErrInternal, counted in PanicsContained). With a background
// context and no memory limits, RunContext is byte-identical to Run.
//
// With the reuse plane enabled (Config.Reuse), a query may instead be
// answered from a result view, which books a zero-cost report whose table
// is checksum-verified before it is served. Queries run one at a time, so a
// repeat that arrives while its first copy executes is answered by the view
// that copy left. A cache hit never triggers a reorganization — it touches
// neither store — so tuned variants reorganize on misses and via
// Reorganize.
func (s *System) RunContext(ctx context.Context, sql string) (*QueryReport, error) {
	return s.submit(ctx, sql, false)
}

// RunDegraded is the forced HV-only entry point: it executes the query
// entirely in HV regardless of variant. HV always holds the base logs, so
// any query can complete on this path. Opportunistic by-products are
// retained as usual and the execution time is charged to HVEXE: it is
// productive work, not recovery. Reorganization is never triggered from
// this path.
func (s *System) RunDegraded(ctx context.Context, sql string) (*QueryReport, error) {
	return s.submit(ctx, sql, true)
}

// CheckInvariants verifies the catalog-level invariants the recovery and
// serving machinery promise to preserve, regardless of faults, deadlines,
// or concurrent submission: the two stores never hold the same view
// (Vh ∩ Vd = ∅), both view sets fit their storage budgets, no
// reorganization moved more than the transfer budget or recorded negative
// byte counts, every TTI component is non-negative, and the query counter
// matches the report log (retained plus evicted). It is safe to call at any
// time.
func (s *System) CheckInvariants() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	s.brokenInvariants(func(_ AuditViolation, msg string) bool {
		first = fmt.Errorf("multistore: %s", msg)
		return false
	})
	return first
}

// reorgDue reports whether a reorganization phase precedes this query.
func (s *System) reorgDue() bool {
	return s.cfg.ReorgEvery > 0 && s.seq > 0 && s.seq%s.cfg.ReorgEvery == 0
}

// Reorganize triggers a reorganization phase immediately, outside the
// query-based schedule — the paper's time-based or activity-based
// invocation ("e.g., when the system is idle"). It only applies to the
// tuned variants; for others it is a no-op.
func (s *System) Reorganize() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	w := s.tuningWindow()
	if w == nil {
		return nil
	}
	s.beginOp()
	if err := s.reorg(w); err != nil {
		return err
	}
	return s.endOp()
}

// tuningWindow is what the variant's online tuner looks at: the history
// window (MS-MISO) or the actual upcoming queries (MS-ORA). Nil for the
// variants that are not tuned online.
func (s *System) tuningWindow() *history.Window {
	switch s.cfg.Variant {
	case VariantMSMiso:
		return s.window
	case VariantMSOra:
		return s.oracleWindow()
	}
	return nil
}

// oracleWindow builds the MS-ORA tuning window from the actual upcoming
// queries rather than history.
func (s *System) oracleWindow() *history.Window {
	w := history.NewWindow(historyLen, epochLen, 1.0)
	end := s.seq + historyLen
	if end > len(s.future) {
		end = len(s.future)
	}
	// Reverse-weighted: the nearest future query matters most, so it goes
	// last (the window weights the end highest).
	for i := end - 1; i >= s.seq && i >= 0; i-- {
		w.Add(s.future[i])
	}
	return w
}
