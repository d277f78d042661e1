// RunPlan is the one way a store executes a plan. It walks the tree, fuses
// every maximal Filter/Project run (Aggregate on top) into a single morsel
// pass over its source — a materialized table, or the raw lines of an
// Extract nobody asked to keep (batch.go) — and builds a table only where
// one is needed: at the tops of those passes, at the operators that cannot
// fuse, and at the nodes the caller keeps. Every executed node still
// reports the row and byte counts its table would have had, so a store's
// statistics and simulated costs cannot tell a fused node from a built one.
package exec

import (
	"miso/internal/logical"
	"miso/internal/storage"
)

// NodeStat is what one executed node's output table reports to the
// estimator and the cost models, whether or not that table was ever built.
type NodeStat struct {
	Rows        int64
	RawBytes    int64 // sum of the rows' EncodedSize
	ScaleFactor float64
}

// LogicalBytes is storage.Table.LogicalBytes for the node's output.
func (s NodeStat) LogicalBytes() int64 { return storage.ScaleBytes(s.RawBytes, s.ScaleFactor) }

func statOf(t *storage.Table) NodeStat {
	return NodeStat{Rows: int64(len(t.Rows)), RawBytes: t.RawBytes(), ScaleFactor: t.ScaleFactor}
}

// PlanResult is one plan execution: the root's table, the tables of the
// nodes the caller asked to keep, and a NodeStat for every executed node
// (ViewScan leaves included; a bare Scan under an Extract never executes).
type PlanResult struct {
	Root   *storage.Table
	Tables map[*logical.Node]*storage.Table
	Stats  map[*logical.Node]NodeStat
}

// RunPlan executes the plan under env. keep names the nodes whose tables
// the caller needs besides the root's (nil keeps none); a kept node always
// ends a fused pass, so its table is exactly what RunNode would have built.
//
// The memory ledger is charged for what is resident: every table built is
// reserved at its raw size and a table that was not kept is released once
// its consumer has run, on top of the operators' own scopes.
func RunPlan(plan *logical.Node, env *Env, keep func(*logical.Node) bool) (*PlanResult, error) {
	r := &planRun{env: env, keep: keep, res: &PlanResult{
		Tables: map[*logical.Node]*storage.Table{},
		Stats:  map[*logical.Node]NodeStat{},
	}}
	defer r.scanBufs.release()
	root, err := r.run(plan)
	if err != nil {
		return nil, err
	}
	r.res.Root = root
	return r.res, nil
}

// Run executes the whole subtree and returns its result: RunPlan keeping
// nothing.
func Run(n *logical.Node, env *Env) (*storage.Table, error) {
	res, err := RunPlan(n, env, nil)
	if err != nil {
		return nil, err
	}
	return res.Root, nil
}

type planRun struct {
	env      *Env
	keep     func(*logical.Node) bool
	res      *PlanResult
	scanBufs scanBufs // handed from each Extract pass of the run to the next
}

func (r *planRun) kept(n *logical.Node) bool { return r.keep != nil && r.keep(n) }

func (r *planRun) note(n *logical.Node, st NodeStat) { r.res.Stats[n] = st }

// run executes n and accounts for its table.
func (r *planRun) run(n *logical.Node) (*storage.Table, error) {
	t, err := r.exec(n)
	if err != nil {
		return nil, err
	}
	if err := r.env.Mem.Reserve(t.RawBytes()); err != nil {
		return nil, err
	}
	r.note(n, statOf(t))
	if r.kept(n) {
		r.res.Tables[n] = t
	}
	return t, nil
}

// consumed releases the ledger's charge for an input nobody keeps.
func (r *planRun) consumed(n *logical.Node, t *storage.Table) {
	if !r.kept(n) {
		r.env.Mem.Release(t.RawBytes())
	}
}

func (r *planRun) exec(n *logical.Node) (*storage.Table, error) {
	chain, below := r.chainAt(n)
	switch {
	case below.Kind == logical.KindExtract && (below == n || !r.kept(below)):
		src, err := newScanSource(below, r.env, &r.scanBufs)
		if err != nil {
			return nil, err
		}
		return runFusedSafe(chain, r.env, src, r.note)
	case len(chain) > 0:
		in, err := r.run(below)
		if err != nil {
			return nil, err
		}
		defer r.consumed(below, in)
		return runFusedSafe(chain, r.env, fusedSource{in: in}, r.note)
	}
	var inputs []*storage.Table
	switch n.Kind {
	case logical.KindViewScan, logical.KindScan:
		// Leaves: resolved inside RunNode.
	default:
		for _, c := range n.Children {
			t, err := r.run(c)
			if err != nil {
				return nil, err
			}
			defer r.consumed(c, t)
			inputs = append(inputs, t)
		}
	}
	return RunNode(n, r.env, inputs)
}

// fusedKind reports whether the operator runs as a stage of a fused pass:
// the Extract at its source, Filter and Project anywhere, Aggregate on top.
func fusedKind(k logical.Kind) bool {
	switch k {
	case logical.KindExtract, logical.KindFilter, logical.KindProject, logical.KindAggregate:
		return true
	}
	return false
}

// chainAt returns the fusable chain whose top is n — n first, then the
// Filter/Project nodes under it that are not kept — and the node feeding
// the chain's bottom. A node that cannot top a chain returns itself.
func (r *planRun) chainAt(n *logical.Node) (chain []*logical.Node, below *logical.Node) {
	if !fusedKind(n.Kind) || n.Kind == logical.KindExtract {
		return nil, n
	}
	chain = []*logical.Node{n}
	below = n.Children[0]
	for (below.Kind == logical.KindFilter || below.Kind == logical.KindProject) && !r.kept(below) {
		chain = append(chain, below)
		below = below.Children[0]
	}
	return chain, below
}
