// Package dw simulates the parallel data warehouse: a hash-partitioned
// RDBMS with far better query performance than HV once data is loaded.
// Permanent space holds the DW side of the multistore design (views placed
// by the tuner); the working sets a query migrates are staged for its own
// executions only. DW cannot execute UDFs. Cost is modeled as a small
// per-query startup plus bytes processed through high per-node throughput — the
// asymmetry against HV that drives every result in the paper.
package dw

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sync"

	"miso/internal/exec"
	"miso/internal/expr"
	"miso/internal/faults"
	"miso/internal/govern"
	"miso/internal/logical"
	"miso/internal/stats"
	"miso/internal/storage"
	"miso/internal/views"
)

// Typed errors callers match with errors.Is.
var (
	// ErrNoSuchTable marks a name found in neither permanent nor temp space.
	ErrNoSuchTable = errors.New("dw: no such table in permanent or temp space")
	// ErrNoBaseLogs marks an attempt to scan raw logs inside DW.
	ErrNoBaseLogs = errors.New("dw: DW holds no base logs")
	// ErrUDF marks a plan containing a UDF, which only HV can execute.
	ErrUDF = errors.New("dw: plan contains a UDF, which only HV can execute")
)

// The cost model's calibration: the paper's 9-node commercial parallel row
// store (§5).
const (
	nodes = 9
	// startup is the fixed per-query overhead in seconds.
	startup = 0.5
	// scanMBps is the per-node processing throughput.
	scanMBps = 450
)

// indexSelectivityFloor bounds how much an index scan can skip; the loader
// builds an index on each permanent view's leading column.
const indexSelectivityFloor = 0.05

// Result reports one (sub)plan execution in DW.
type Result struct {
	Table   *storage.Table
	Seconds float64
}

// Store is the DW instance. A query's working sets reach each of its
// executions as its staged tables (BeginExecute), so two queries that name
// theirs alike never meet; the mutex-guarded temp space serves callers
// that stage by name and run ExecuteContext (the benchmark's replay
// probe). The Views set is internally locked; reassignment of the Views
// field is serialized by the multistore system's mutex.
type Store struct {
	// workers bounds the execution engine's worker pool (exec.Env.Workers):
	// 0 means GOMAXPROCS. Results are byte-identical at every setting.
	workers   int
	est       *stats.Estimator
	execStats *exec.Stats
	execInj   *faults.Injector

	// Views is the permanent table space: the DW side of the multistore
	// design.
	Views *views.Set

	mu   sync.Mutex
	temp map[string]*storage.Table
}

// NewStore creates an empty DW store whose execution engine runs on workers
// workers (0 means GOMAXPROCS).
func NewStore(est *stats.Estimator, workers int) *Store {
	return &Store{workers: workers, est: est, Views: views.NewSet(), temp: map[string]*storage.Table{}}
}

// StageTemp registers a working set under the given name in temporary
// table space (not part of the physical design), where ExecuteContext reads
// it.
func (s *Store) StageTemp(name string, t *storage.Table) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.temp[name] = t
}

// ClearTemp discards all temporary tables.
func (s *Store) ClearTemp() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.temp = map[string]*storage.Table{}
}

// resolve finds a table by view name in permanent space, then among staged.
func (s *Store) resolve(name string, staged map[string]*storage.Table) (*storage.Table, error) {
	if v, ok := s.Views.Get(name); ok {
		return v.Table, nil
	}
	if ws, ok := staged[name]; ok {
		return ws, nil
	}
	return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
}

// SetExecStats attaches a per-operator timing collector to every Env this
// store hands out (nil detaches).
func (s *Store) SetExecStats(st *exec.Stats) { s.execStats = st }

// SetExecFaults arms the exec engine's fault sites with their own
// injector, separate from the store-level one (see hv.Store.SetExecFaults).
func (s *Store) SetExecFaults(inj *faults.Injector) { s.execInj = inj }

// env returns the execution environment over permanent space and staged.
// DW has no raw logs: plans must bottom out in ViewScans over either.
func (s *Store) env(staged map[string]*storage.Table) *exec.Env {
	return &exec.Env{
		ReadLog: func(name string) (*storage.LogFile, error) {
			return nil, fmt.Errorf("%w: cannot scan raw log %q", ErrNoBaseLogs, name)
		},
		ReadView: func(name string) (*storage.Table, error) { return s.resolve(name, staged) },
		Workers:  s.workers,
		Stats:    s.execStats,
		Inj:      s.execInj,
	}
}

// ExecuteContext runs a subplan entirely inside DW over permanent and
// temporary space: BeginExecute with the temp space staged, then Commit.
func (s *Store) ExecuteContext(ctx context.Context, plan *logical.Node) (*Result, error) {
	s.mu.Lock()
	temp := maps.Clone(s.temp)
	s.mu.Unlock()
	p, err := s.BeginExecute(ctx, plan, temp)
	if err != nil {
		return nil, err
	}
	return p.Commit(), nil
}

// Pending is a DW execution whose compute has finished but whose
// bookkeeping — statistics records and simulated-time costing — has not
// been performed: a Pending that is dropped leaves the store as it was.
type Pending struct {
	s      *Store
	plan   *logical.Node
	staged map[string]*storage.Table
	run    *exec.PlanResult
}

// Table returns the computed result table (available before Commit).
func (p *Pending) Table() *storage.Table { return p.run.Root }

// BeginExecute runs only the compute of a subplan inside DW: the plan must
// be UDF-free and leaf only on permanent views or on staged, the working
// sets migrated for this execution. It abandons the plan at the next
// operator boundary once ctx is done (the error then wraps ctx.Err()), and
// charges execution memory to the ledger ctx carries, if any. It draws no
// fault and writes no store state.
func (s *Store) BeginExecute(ctx context.Context, plan *logical.Node, staged map[string]*storage.Table) (*Pending, error) {
	if plan.UsesUDF() {
		return nil, ErrUDF
	}
	env := s.env(staged)
	env.Ctx = ctx
	env.Mem = govern.LedgerFrom(ctx)
	// Only the root's table is needed: everything under it pipelines.
	run, err := exec.RunPlan(plan, env, nil)
	if err != nil {
		return nil, fmt.Errorf("dw: executing plan: %w", err)
	}
	return &Pending{s: s, plan: plan, staged: staged, run: run}, nil
}

// Commit performs the execution's bookkeeping in the caller's serialized
// flow: it records the observed statistics and costs the plan from the
// sizes it measured. ExecuteContext is BeginExecute + Commit.
func (p *Pending) Commit() *Result {
	s, run := p.s, p.run
	// Nothing that reads a working set is recorded: they are named by cut
	// position, so two statements share the ids of the nodes over ws_0, and
	// each would store its truth over the other's. The optimizer sizes every
	// working-set scan by the stat it hands CostAbove.
	var record func(n *logical.Node) (readsStaged bool)
	record = func(n *logical.Node) bool {
		_, reads := p.staged[n.ViewName]
		reads = reads && n.Kind == logical.KindViewScan
		for _, c := range n.Children {
			reads = record(c) || reads
		}
		if st, ok := run.Stats[n]; ok && !reads {
			s.est.Record(n, stats.Stat{Rows: st.Rows, Bytes: st.LogicalBytes()})
		}
		return reads
	}
	record(p.plan)
	sec := s.costFromSizes(p.plan, func(n *logical.Node) int64 { return run.Stats[n].LogicalBytes() })
	return &Result{Table: run.Root, Seconds: sec}
}

// costFromSizes charges each operator its input bytes through the cluster
// throughput. Filters directly over an indexed permanent view scan less.
func (s *Store) costFromSizes(plan *logical.Node, size func(*logical.Node) int64) float64 {
	var bytes float64
	s.chargeEdges(plan, size, &bytes)
	// The root's output is returned to the client; charge it once.
	bytes += float64(size(plan))
	return startup + bytes/throughput
}

// throughput is the cluster's processing rate in bytes per second.
const throughput = scanMBps * nodes * 1e6

// chargeEdges adds to bytes every edge of the subtree, each child's edge
// after the edges beneath it.
func (s *Store) chargeEdges(n *logical.Node, size func(*logical.Node) int64, bytes *float64) {
	for _, c := range n.Children {
		s.chargeEdges(c, size, bytes)
		*bytes += s.edge(n, c.Kind, c.ViewName, size(c))
	}
}

// edge is what feeding a child of the given kind (and view, for a view
// scan) and size into parent charges: a filter directly over an indexed
// view scan reads less of it.
func (s *Store) edge(parent *logical.Node, kind logical.Kind, view string, size int64) float64 {
	b := float64(size)
	if parent.Kind == logical.KindFilter && kind == logical.KindViewScan {
		if sel, ok := s.indexSelectivity(parent, view); ok {
			b *= sel
		}
	}
	return b
}

// Stand is what stands in place of one cut of a plan CostAbove costs: Node,
// a DW view's rewrite of the cut, or else a scan of the migrated working
// set Name, whose scan has id ID and whose estimated size is Stat.
type Stand struct {
	Node *logical.Node
	Name string
	ID   uint64
	Stat stats.Stat
}

// CostAbove is the store's what-if interface, in the paper's terms: the
// estimated execution time, in seconds, of plan with each cuts[i] replaced
// by stands[i], without running or building the replaced plan. One
// bottom-up walk over the nodes above the cuts derives each copied node's
// id as WithChildren would give it (logical.Node.IDOver), so the
// estimator's cache answers the lookups it would answer for the built plan,
// derives its size with the estimator's own formulas from its children's
// (stats.Estimator.Derive), and charges the edges in costFromSizes' order:
// to the bit what costing the built plan node by node would give, with each
// working set's scan sized by its Stat (the tests' CostBuilt). The walk
// records and stages nothing, so any number of goroutines may cost plans at
// once. Every leaf of plan lies under a cut, and no node has more than two
// children.
func (s *Store) CostAbove(plan *logical.Node, cuts []*logical.Node, stands []Stand) float64 {
	w := above{s: s, cuts: cuts, stands: stands}
	root := w.visit(plan)
	w.bytes += float64(root.stat.Bytes)
	return startup + w.bytes/throughput
}

// above is CostAbove's walk; bytes sums its edges.
type above struct {
	s      *Store
	cuts   []*logical.Node
	stands []Stand
	bytes  float64
}

// sized is one node of the replaced plan as the walk derives it: its id,
// its estimate, and what an edge from it and a projection over it read.
type sized struct {
	id     uint64
	stat   stats.Stat
	schema *storage.Schema
	kind   logical.Kind
	view   string // a ViewScan's view
}

func (w *above) visit(n *logical.Node) sized {
	if i := slices.Index(w.cuts, n); i >= 0 {
		st := w.stands[i]
		if r := st.Node; r != nil {
			w.s.chargeEdges(r, w.estimate, &w.bytes)
			return sized{id: r.ID(), stat: w.s.est.Estimate(r), schema: r.Schema(), kind: r.Kind, view: r.ViewName}
		}
		return sized{id: st.ID, stat: st.Stat, schema: n.Schema(), kind: logical.KindViewScan, view: st.Name}
	}
	var kids [2]sized
	var ids [2]uint64
	for k, c := range n.Children {
		kids[k] = w.visit(c)
		ids[k] = kids[k].id
		w.bytes += w.s.edge(n, kids[k].kind, kids[k].view, kids[k].stat.Bytes)
	}
	id := n.IDOver(ids[:len(n.Children)])
	stat, ok := w.s.est.Lookup(id)
	if !ok {
		stat = w.s.est.Derive(n, kids[0].stat, kids[1].stat, kids[0].schema)
	}
	return sized{id: id, stat: stat, schema: n.Schema(), kind: n.Kind}
}

func (w *above) estimate(n *logical.Node) int64 { return w.s.est.Estimate(n).Bytes }

// indexSelectivity reports the fraction of an indexed view a filter must
// read, when the filter constrains the view's leading column with an
// equality or IN predicate. Only permanent views are indexed (the tuner
// builds the index at load time); temp tables are not.
func (s *Store) indexSelectivity(filter *logical.Node, view string) (float64, bool) {
	v, ok := s.Views.Get(view)
	if !ok || v.Table.Schema.Len() == 0 {
		return 0, false
	}
	lead := v.Table.Schema.Columns[0].Name
	for _, c := range expr.Conjuncts(filter.Pred) {
		switch e := c.(type) {
		case *expr.BinOp:
			if e.Op != "=" {
				continue
			}
			if refsColumn(e.L, lead) || refsColumn(e.R, lead) {
				return floorSel(0.1), true
			}
		case *expr.In:
			if !e.Neg && refsColumn(e.E, lead) {
				return floorSel(0.1 * float64(len(e.Items))), true
			}
		}
	}
	return 0, false
}

func floorSel(sel float64) float64 {
	if sel < indexSelectivityFloor {
		return indexSelectivityFloor
	}
	if sel > 1 {
		return 1
	}
	return sel
}

func refsColumn(e expr.Expr, name string) bool {
	c, ok := e.(*expr.ColRef)
	return ok && c.Name == name
}
