// Package hv simulates the big data store: a Hive-like engine that executes
// logical plans as a sequence of MapReduce-style jobs. Every job boundary
// (join, aggregate, distinct, sort — plus the map-phase outputs feeding
// them) materializes its result, exactly the fault-tolerance by-products the
// paper retains as opportunistic materialized views. Execution is real
// (actual tuples); wall-clock time is simulated from measured logical bytes
// through a calibrated cost model: high per-job startup and modest per-node
// scan/write throughput, with an extra SerDe penalty when parsing raw JSON
// logs.
package hv

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"miso/internal/exec"
	"miso/internal/faults"
	"miso/internal/govern"
	"miso/internal/logical"
	"miso/internal/stats"
	"miso/internal/storage"
	"miso/internal/views"
)

// ErrViewMissing marks a ViewScan over a view this store does not hold;
// callers test for it with errors.Is.
var ErrViewMissing = errors.New("hv: view not in HV")

// The cost model's calibration: the paper's 15-node Hive cluster (§5),
// matched to its observed query times (thousands of seconds per query over
// ~TB logs).
const (
	nodes = 15
	// stageStartup is the fixed per-job scheduling overhead in seconds.
	stageStartup = 90.0
	// scanMBps is the per-node scan throughput for already-extracted data,
	// writeMBps the per-node HDFS write (materialization) throughput.
	scanMBps, writeMBps = 90, 60
	// serDeFactor divides scan throughput when parsing raw JSON logs.
	serDeFactor = 2.0
)

// ScanBytesPerSec is the cluster's scan throughput over extracted data: the
// rate a job reads views and materialized inputs at, and the rate recovery
// re-reads restored views at.
const ScanBytesPerSec = scanMBps * nodes * 1e6

// writeBytesPerSec is the cluster's HDFS write throughput.
const writeBytesPerSec = writeMBps * nodes * 1e6

// Result reports one plan execution in HV.
type Result struct {
	Table *storage.Table
	// Seconds is the simulated fault-free execution time.
	Seconds float64
	// RecoverySeconds is extra simulated time spent surviving injected
	// stage failures: partially re-executed stages plus backoff waits.
	// Because every job boundary is materialized, recovery restarts from
	// the failed stage only, never from the start of the plan.
	RecoverySeconds float64
	// Retries counts injected stage and HDFS-write failures survived.
	Retries int
	// NewViews are opportunistic views created by this execution (stage
	// outputs not already present in the store).
	NewViews []*views.View
	// Stages is the number of jobs run.
	Stages int
}

// Store is the HV instance: it owns the raw logs (via the catalog) and the
// HV side of the multistore design.
type Store struct {
	// workers bounds the execution engine's worker pool (exec.Env.Workers):
	// 0 means GOMAXPROCS. Results are byte-identical at every setting; only
	// real wall-clock changes (simulated cost is byte-based).
	workers   int
	cat       *storage.Catalog
	est       *stats.Estimator
	inj       *faults.Injector
	retry     faults.RetryPolicy
	execStats *exec.Stats
	execInj   *faults.Injector
	// captureVeto, when set, suppresses opportunistic capture of views
	// whose name it reports true for (see SetCaptureVeto).
	captureVeto func(name string) bool

	// Views is the HV view set (the store's physical design).
	Views *views.Set
}

// NewStore creates an HV store over the catalog whose execution engine runs
// on workers workers (0 means GOMAXPROCS).
func NewStore(cat *storage.Catalog, est *stats.Estimator, workers int) *Store {
	return &Store{workers: workers, cat: cat, est: est, Views: views.NewSet()}
}

// SetFaults arms the store with a fault injector and recovery policy. A
// nil injector disables injection entirely (the default).
func (s *Store) SetFaults(inj *faults.Injector, retry faults.RetryPolicy) {
	s.inj = inj
	s.retry = retry.OrDefault()
}

// SetExecStats attaches a per-operator timing collector to every Env this
// store hands out (nil detaches).
func (s *Store) SetExecStats(st *exec.Stats) { s.execStats = st }

// SetExecFaults arms the exec engine's fault sites (worker panics, memory
// pressure, slow morsels) with their own injector, separate from the
// store-level one so concurrent morsel draws never perturb the serialized
// stage/transfer draw sequence. Nil disables (the default).
func (s *Store) SetExecFaults(inj *faults.Injector) { s.execInj = inj }

// SetCaptureVeto installs a predicate consulted before an opportunistic
// view capture publishes a new view. The multistore uses it to preserve
// Vh ∩ Vd = ∅: an HV fallback that recomputes the definition of a
// DW-resident view (the tuner moved it there) must not re-capture it in
// HV. The veto runs during Commit, on the serialized query flow.
func (s *Store) SetCaptureVeto(veto func(name string) bool) { s.captureVeto = veto }

// Env returns the execution environment resolving logs and HV views. It
// carries no context and no memory ledger: those belong to one execution
// and BeginExecute takes them from its caller's context.
func (s *Store) Env() *exec.Env {
	return &exec.Env{
		ReadLog: func(name string) (*storage.LogFile, error) { return s.cat.Log(name) },
		ReadView: func(name string) (*storage.Table, error) {
			v, ok := s.Views.Get(name)
			if !ok {
				return nil, fmt.Errorf("%w: %q", ErrViewMissing, name)
			}
			return v.Table, nil
		},
		Workers: s.workers,
		Stats:   s.execStats,
		Inj:     s.execInj,
	}
}

var boundaryKind = map[logical.Kind]bool{
	logical.KindJoin:      true,
	logical.KindAggregate: true,
	logical.KindDistinct:  true,
	logical.KindSort:      true,
}

// MaterializedNodes returns the set of nodes whose outputs a Hive-style
// engine writes to HDFS: the root, every job boundary, and the map-phase
// outputs feeding each boundary.
func MaterializedNodes(root *logical.Node) map[*logical.Node]bool {
	mat := map[*logical.Node]bool{root: true}
	root.Walk(func(n *logical.Node) {
		if !boundaryKind[n.Kind] {
			return
		}
		mat[n] = true
		for _, c := range n.Children {
			if c.Kind != logical.KindViewScan && c.Kind != logical.KindScan {
				mat[c] = true
			}
		}
	})
	// A bare ViewScan or Scan root is not a job.
	if root.Kind == logical.KindViewScan || root.Kind == logical.KindScan {
		delete(mat, root)
	}
	return mat
}

// stageInput sums the bytes a job reads: materialized descendants' outputs
// and views at normal scan rate, raw logs at SerDe rate.
func stageInput(n *logical.Node, mat map[*logical.Node]bool, size func(*logical.Node) int64) (normal, serde int64) {
	for _, c := range n.Children {
		switch {
		case mat[c], c.Kind == logical.KindViewScan:
			normal += size(c)
		case c.Kind == logical.KindScan:
			serde += size(c)
		default:
			cn, cs := stageInput(c, mat, size)
			normal += cn
			serde += cs
		}
	}
	return normal, serde
}

// jobSeconds costs one job from its input/output byte sizes.
func jobSeconds(normal, serde, out int64) float64 {
	sec := stageStartup
	sec += float64(normal) / ScanBytesPerSec
	sec += float64(serde) * serDeFactor / ScanBytesPerSec
	sec += float64(out) / writeBytesPerSec
	return sec
}

// ExecuteContext runs the plan, materializing every stage, charging
// simulated time, recording observed statistics, and capturing new
// opportunistic views; seq is the workload sequence number (for view
// bookkeeping). It abandons the plan at the next stage boundary once ctx is
// done: an abandoned execution returns a nil Result and an error wrapping
// ctx.Err(); any simulated time the caller had already accrued for earlier
// phases is its to charge (the multistore books it under RECOVERY).
func (s *Store) ExecuteContext(ctx context.Context, plan *logical.Node, seq int) (*Result, error) {
	p, err := s.BeginExecute(ctx, plan)
	if err != nil {
		return nil, err
	}
	return p.Commit(ctx, seq)
}

// Pending is a plan execution whose data-path compute has finished but
// whose bookkeeping — statistics records, simulated-time costing, fault
// replay, opportunistic view capture — has not been performed. Computing
// publishes no state: a Pending that is simply dropped leaves the store
// byte-identical to one that never ran. A served query computes its HV
// steps this way before the system lock and commits them under it, in the
// order a serial run would, so everything Commit does reads the store as
// the commit finds it; the caller keeps a Pending only while the views the
// plan reads are the ones its compute read.
type Pending struct {
	s *Store
	// run holds the tables of the materialized nodes only, and the
	// statistics of every executed node.
	run *exec.PlanResult
	mat map[*logical.Node]bool
}

// Table returns the computed result table (available before Commit).
func (p *Pending) Table() *storage.Table { return p.run.Root }

// BeginExecute runs only the compute phase of the plan: real tuples
// through the exec engine, charged to the memory ledger ctx carries
// (govern.WithLedger; none means unmetered), with cooperative cancellation
// at every stage boundary and morsel claim. Only the materialized nodes —
// the job outputs — become tables; a job's map side runs as one fused pass
// (exec.RunPlan). It performs no injector draws, mutates no store state and
// reads no per-query state from the store, so concurrent BeginExecute calls
// are safe alongside a serialized query stream and an abandoned Pending
// costs nothing.
func (s *Store) BeginExecute(ctx context.Context, plan *logical.Node) (*Pending, error) {
	env := s.Env()
	env.Ctx = ctx
	env.Mem = govern.LedgerFrom(ctx)
	mat := MaterializedNodes(plan)
	run, err := exec.RunPlan(plan, env, func(n *logical.Node) bool { return mat[n] })
	if err != nil {
		return nil, fmt.Errorf("hv: executing plan: %w", err)
	}
	return &Pending{s: s, run: run, mat: mat}, nil
}

// Commit performs the deferred bookkeeping of a computed execution, in the
// caller's serialized flow: statistics records, per-stage simulated-time
// costing, the deterministic fault replay (which consumes main-injector
// draws exactly where an undeferred execution would), and opportunistic
// view capture. ExecuteContext is BeginExecute + Commit.
func (p *Pending) Commit(ctx context.Context, seq int) (*Result, error) {
	s, mat, nodeStats, tables := p.s, p.mat, p.run.Stats, p.run.Tables

	// Iterate in signature order: float accumulation and view capture must
	// not depend on Go's randomized map iteration, or two identical runs
	// drift by an ULP and the durable digest diverges.
	allNodes := make([]*logical.Node, 0, len(nodeStats))
	for n := range nodeStats {
		allNodes = append(allNodes, n)
	}
	sort.SliceStable(allNodes, func(i, j int) bool { return allNodes[i].Signature() < allNodes[j].Signature() })
	matNodes := make([]*logical.Node, 0, len(mat))
	for _, n := range allNodes {
		if mat[n] {
			matNodes = append(matNodes, n)
		}
	}

	// Record truth for every computed subtree, built or fused.
	for _, n := range allNodes {
		st := nodeStats[n]
		s.est.Record(n, stats.Stat{Rows: st.Rows, Bytes: st.LogicalBytes()})
	}

	res := &Result{Table: p.run.Root}
	size := func(n *logical.Node) int64 {
		if n.Kind == logical.KindScan {
			log, err := s.cat.Log(n.LogName)
			if err != nil {
				return 0
			}
			return log.LogicalBytes()
		}
		if st, ok := nodeStats[n]; ok {
			return st.LogicalBytes()
		}
		if v, ok := s.Views.Get(n.ViewName); ok {
			return v.SizeBytes()
		}
		return 0
	}
	type stageCost struct{ sec, writeSec float64 }
	var stages []stageCost
	for _, n := range matNodes {
		normal, serde := stageInput(n, mat, size)
		outBytes := tables[n].LogicalBytes()
		sec := jobSeconds(normal, serde, outBytes)
		res.Seconds += sec
		res.Stages++
		if s.inj.Enabled() {
			stages = append(stages, stageCost{sec, float64(outBytes) / writeBytesPerSec})
		}
	}

	// Fault plane: replay each stage against the injector in signature
	// order (stages is already sorted that way). A failed stage
	// re-executes from its materialized inputs — the last job boundary —
	// so only that stage's partial work plus backoff is lost, never the
	// whole plan. This is exactly the fault tolerance the paper's
	// by-product materializations buy. Each injected failure wastes the
	// completed fraction of the phase plus a backoff wait, charged to
	// RecoverySeconds; giving up (faults.RetryPolicy.GiveUp) fails the whole
	// execution with a typed fault error.
	if s.inj.Enabled() {
		for i, st := range stages {
			if err := s.retry.Replay(ctx, s.inj, faults.SiteHVStage, "hv job", st.sec, &res.Retries, &res.RecoverySeconds); err != nil {
				return nil, fmt.Errorf("hv: stage %d/%d: %w", i+1, len(stages), err)
			}
			if err := s.retry.Replay(ctx, s.inj, faults.SiteHDFSWrite, "hv job", st.writeSec, &res.Retries, &res.RecoverySeconds); err != nil {
				return nil, fmt.Errorf("hv: materializing stage %d/%d: %w", i+1, len(stages), err)
			}
		}
	}

	// Capture opportunistic views from stage outputs. Definitions are
	// expanded to base-data terms so future raw plans match them.
	for _, n := range matNodes {
		if n.Kind == logical.KindViewScan {
			continue
		}
		def := s.ExpandViews(n)
		if def == nil {
			continue
		}
		name := views.NameForSig(def.Signature())
		if s.captureVeto != nil && s.captureVeto(name) {
			continue
		}
		if s.Views.Touch(name, seq) {
			continue
		}
		v := views.New(def, tables[n], seq)
		s.est.RecordView(v.Name, stats.Stat{
			Rows:  int64(tables[n].NumRows()),
			Bytes: tables[n].LogicalBytes(),
		})
		s.Views.Add(v)
		res.NewViews = append(res.NewViews, v)
	}
	return res, nil
}

// ExpandViews rewrites ViewScan leaves back to their base-data definitions,
// producing a definition whose signature matches raw (unrewritten) plans.
// Returns nil when a referenced view is unknown to this store. The result
// is Normalize's copy, the only one made: n and the spliced definitions are
// read, never copied or written.
func (s *Store) ExpandViews(n *logical.Node) *logical.Node {
	return logical.NormalizeExpanded(n, func(name string) *logical.Node {
		if v, ok := s.Views.Get(name); ok {
			return v.Def
		}
		return nil
	})
}

// CostPlan estimates the simulated execution time of the plan without
// running it, using the shared estimator (what-if mode). Hypothetical views
// must have recorded sizes (RecordView) for accurate costing. The stage
// sum runs in signature order so the float64 accumulation — and therefore
// every what-if cost — is deterministic regardless of map iteration order.
func (s *Store) CostPlan(plan *logical.Node) float64 {
	if plan.Kind == logical.KindViewScan || plan.Kind == logical.KindScan {
		return 0
	}
	mat := MaterializedNodes(plan)
	stages := make([]*logical.Node, 0, len(mat))
	for n := range mat {
		stages = append(stages, n)
	}
	sort.Slice(stages, func(i, j int) bool { return stages[i].Signature() < stages[j].Signature() })
	sizes := map[*logical.Node]int64{}
	size := func(n *logical.Node) int64 {
		if b, ok := sizes[n]; ok {
			return b
		}
		b := s.est.Estimate(n).Bytes
		sizes[n] = b
		return b
	}
	var sec float64
	for _, n := range stages {
		normal, serde := stageInput(n, mat, size)
		sec += jobSeconds(normal, serde, s.est.Estimate(n).Bytes)
	}
	return sec
}
