// Package optimizer implements the multistore query optimizer. Given a raw
// logical plan and a (real or hypothetical) placement of views across the
// stores, it enumerates split points — downward-closed cuts of the plan
// whose HV-side subtrees execute in the big data store and whose outputs
// migrate into DW temp space for the remainder — rewrites each side with
// the views available in that store, costs the alternatives with the
// stores' what-if interfaces plus the transfer model, and picks the
// cheapest. UDF-bearing operators are pinned to HV; raw-log extraction can
// only happen in HV, unless a DW-resident view already covers the subtree,
// in which case the query can bypass HV entirely.
package optimizer

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"miso/internal/dw"
	"miso/internal/hv"
	"miso/internal/logical"
	"miso/internal/stats"
	"miso/internal/transfer"
	"miso/internal/views"
)

// Design is a placement of views across the two stores — the multistore
// physical design M = <Vh, Vd> of the paper — and the result views a plan
// choice may reuse.
type Design struct {
	HV *views.Set
	DW *views.Set
	// Results, when set, holds the cross-query reuse plane's result views,
	// keyed by the id of the raw subtree each answers. A cut one of them
	// answers charges no HV execution cost, steering plan choice toward
	// reused work; nil (the tuner's what-if designs) reuses nothing.
	Results *views.Set
}

// EmptyDesign returns a design with no views in either store and no result
// views.
func EmptyDesign() Design {
	return Design{HV: views.NewSet(), DW: views.NewSet()}
}

// Cut is one migrated subtree of a multistore plan.
type Cut struct {
	// Node is the raw subtree that ends in HV (before HV-side rewriting).
	Node *logical.Node
	// HVPlan is the subtree rewritten with the HV views, or nil when the
	// subtree is answered directly by a DW-resident view.
	HVPlan *logical.Node
	// DWView is the DW-side rewrite when a DW view covers the subtree
	// (no HV work, no transfer).
	DWView *logical.Node
	// TempName is the temp-space name the DW part reads the migrated
	// working set under.
	TempName string
	// EstBytes is the estimated size of the migrated working set.
	EstBytes int64
}

// MultiPlan is one complete multistore execution alternative.
type MultiPlan struct {
	// HVOnly is set when the entire query executes in HV.
	HVOnly bool
	// HVPlan is the full rewritten plan for HV-only execution.
	HVPlan *logical.Node
	// Cuts are the migrated subtrees for split execution.
	Cuts []Cut
	// DWPart is the remainder executed in DW, reading cut outputs via
	// ViewScans; nil for HV-only plans.
	DWPart *logical.Node

	// Estimated cost components in simulated seconds.
	EstHV, EstTransfer, EstDW float64
	// EstTransferBytes is the total estimated migrated bytes.
	EstTransferBytes int64
}

// EstTotal is the plan's total estimated cost.
func (p *MultiPlan) EstTotal() float64 { return p.EstHV + p.EstTransfer + p.EstDW }

// DWOnly reports whether the whole query runs in DW: no cut, the remainder
// is the plan.
func (p *MultiPlan) DWOnly() bool { return !p.HVOnly && len(p.Cuts) == 0 }

// Explain renders the multistore plan for humans: where each part runs,
// what migrates, and the estimated cost breakdown. A plan no cost model
// priced — every estimate zero: a plan built by rule rather than chosen,
// or an HV-only plan that only reads a view — prints without an estimate.
func (p *MultiPlan) Explain() string {
	var b strings.Builder
	switch {
	case p.HVOnly:
		b.WriteString("HV-only plan")
		if p.EstHV != 0 {
			fmt.Fprintf(&b, " (est %.1fs)", p.EstHV)
		}
		b.WriteString(":\n")
		b.WriteString(indent(p.HVPlan.String(), "  "))
		return b.String()
	case p.DWOnly():
		b.WriteString("DW-only plan:\n")
		b.WriteString(indent(p.DWPart.String(), "  "))
		return b.String()
	}
	fmt.Fprintf(&b, "split plan (est %.1fs = HV %.1f + transfer %.1f + DW %.1f):\n",
		p.EstTotal(), p.EstHV, p.EstTransfer, p.EstDW)
	for i, cut := range p.Cuts {
		if cut.DWView != nil {
			fmt.Fprintf(&b, "cut %d: answered by a DW-resident view\n", i)
			b.WriteString(indent(cut.DWView.String(), "  "))
			continue
		}
		fmt.Fprintf(&b, "cut %d: executes in HV, migrates ~%.2f GB as %s\n",
			i, float64(cut.EstBytes)/1e9, cut.TempName)
		b.WriteString(indent(cut.HVPlan.String(), "  "))
	}
	b.WriteString("remainder executes in DW:\n")
	b.WriteString(indent(p.DWPart.String(), "  "))
	return b.String()
}

func indent(s, prefix string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n") + "\n"
}

// Optimizer plans queries across the two stores.
type Optimizer struct {
	hv  *hv.Store
	dw  *dw.Store
	est *stats.Estimator
	// maxPlans caps split enumeration per query: planCap, which only tests
	// lower.
	maxPlans int
}

// planCap caps the frontiers enumerated per query.
const planCap = 256

// New creates an optimizer over the two stores.
func New(h *hv.Store, d *dw.Store, est *stats.Estimator) *Optimizer {
	return &Optimizer{hv: h, dw: d, est: est, maxPlans: planCap}
}

// RewriteWithViews rewrites the plan greedily top-down, replacing each
// subtree by the best matching view in the set. It returns the (possibly
// unchanged) plan.
func RewriteWithViews(n *logical.Node, set *views.Set) *logical.Node {
	return rewrite(n, set, map[*logical.Node]*logical.Node{})
}

// rewrite is RewriteWithViews remembering each node's result in done, so
// one plan choice — hvOnlyPlan's walk and every cut's rewrite — matches each
// raw node against the set at most once. A rewrite is a pure function of
// the node and the set, and raw plans are trees, so a remembered result is
// what rewriting again would build.
func rewrite(n *logical.Node, set *views.Set, done map[*logical.Node]*logical.Node) *logical.Node {
	if set == nil || set.Len() == 0 {
		return n
	}
	if out, ok := done[n]; ok {
		return out
	}
	out := n
	if m, ok := set.BestMatch(n); ok {
		if rw, err := m.Rewrite(); err == nil {
			out = rw
		}
	}
	if out == n {
		// Only the nodes above a rewritten subtree are copied; subtrees the
		// rewrite leaves alone stay shared.
		var kids []*logical.Node
		for i, c := range n.Children {
			if nc := rewrite(c, set, done); nc != c {
				if kids == nil {
					kids = slices.Clone(n.Children)
				}
				kids[i] = nc
			}
		}
		if kids != nil {
			out = n.WithChildren(kids)
		}
	}
	done[n] = out
	return out
}

// enumerateCuts lists candidate frontiers: each frontier is a set of
// subtree roots that execute in HV (or resolve to DW views), with
// everything above running in DW. The frontier {root} (HV-only) is NOT
// included; it is handled separately.
func (o *Optimizer) enumerateCuts(n *logical.Node, limit int) [][]*logical.Node {
	options := [][]*logical.Node{{n}}
	if n.Kind == logical.KindExtract || n.Kind == logical.KindScan ||
		n.Kind == logical.KindViewScan || len(n.Children) == 0 {
		return options
	}
	// For n to run in DW, its own expressions must be UDF-free.
	if n.UsesUDFHere() {
		return options
	}
	combos := [][]*logical.Node{nil}
	for _, c := range n.Children {
		childOpts := o.enumerateCuts(c, limit)
		var next [][]*logical.Node
		for _, base := range combos {
			for _, co := range childOpts {
				merged := make([]*logical.Node, 0, len(base)+len(co))
				merged = append(merged, base...)
				merged = append(merged, co...)
				next = append(next, merged)
				if len(next) >= limit {
					break
				}
			}
			if len(next) >= limit {
				break
			}
		}
		combos = next
	}
	options = append(options, combos...)
	if len(options) > limit {
		options = options[:limit]
	}
	return options
}

// cutEval memoizes the frontier-independent evaluation of one cut subtree
// within a single plan choice: its DW-view rewrite (when one covers it), or
// its HV rewrite, estimated output, HV cost and transfer cost. The same
// subtree appears in many enumerated frontiers; evaluating it once per
// choice instead of once per frontier removes the dominant repeated work
// from the what-if path. Only the migrated working set's temp name differs
// per frontier (it is positional), so that stays in buildPlan. Every
// memoized value is a pure function of the node and the design, which a
// choice holds fixed; the estimated output and transfer cost hold under
// every design, and the HV cost whenever no HV view rewrites the cut.
type cutEval struct {
	dwView *logical.Node // non-nil when a DW-resident view answers the cut
	dwBy   *views.View   // the view dwView reads
	hvPlan *logical.Node
	st     stats.Stat
	hvCost float64
	xfer   float64
}

// choice is what one plan choice under one design shares across its
// frontiers: the design, the HV rewrites of raw nodes (hvOnlyPlan's and
// every cut's), the cuts' evaluations and the design's result views'
// answers so far.
type choice struct {
	d         Design
	rewritten map[*logical.Node]*logical.Node
	cuts      map[*logical.Node]*cutEval
	probed    map[*logical.Node]bool
}

func newChoice(d Design) *choice {
	return &choice{d: d, rewritten: map[*logical.Node]*logical.Node{}, cuts: map[*logical.Node]*cutEval{}}
}

func (c *choice) rewriteHV(n *logical.Node) *logical.Node { return rewrite(n, c.d.HV, c.rewritten) }

// reused reports whether the design's result views hold the cut's
// subresult. Result views match on the exact tier alone, so a view with the
// cut's id is all it asks for. A cut node appears in many frontiers; the set
// is asked about it once per choice, which holds the answer still.
func (c *choice) reused(n *logical.Node) bool {
	if c.d.Results == nil {
		return false
	}
	held, ok := c.probed[n]
	if !ok {
		if c.probed == nil {
			c.probed = map[*logical.Node]bool{}
		}
		_, held = c.d.Results.ByID(n.ID())
		c.probed[n] = held
	}
	return held
}

// evalCut evaluates the cut under the choice's design, once per choice.
// base, when given, is a plan space's slot for the cut, which holds the
// cut's evaluation when no view touches it: it is filled the first time a
// choice finds neither a DW view answering the cut nor an HV view rewriting
// it, and shared with every later choice in the space.
func (o *Optimizer) evalCut(cutNode *logical.Node, c *choice, base *spaceCut) *cutEval {
	if ce, ok := c.cuts[cutNode]; ok {
		return ce
	}
	var ce *cutEval
	if c.d.DW != nil {
		if m, ok := c.d.DW.BestMatch(cutNode); ok {
			if r, err := m.Rewrite(); err == nil {
				ce = &cutEval{dwView: r, dwBy: m.View}
			}
		}
	}
	if ce == nil {
		hvPlan := c.rewriteHV(cutNode)
		if base != nil && hvPlan == cutNode {
			ce = base.eval(o)
		} else {
			ev := o.evalHV(cutNode, hvPlan)
			ce = &ev
		}
	}
	c.cuts[cutNode] = ce
	return ce
}

// evalHV evaluates a cut that runs in HV as hvPlan and migrates.
func (o *Optimizer) evalHV(cutNode, hvPlan *logical.Node) cutEval {
	st := o.est.Estimate(cutNode)
	return cutEval{hvPlan: hvPlan, st: st, hvCost: o.hv.CostPlan(hvPlan), xfer: transfer.Cost(st.Bytes).Total()}
}

// tempNames are the migrated working sets' temp names by cut position,
// formatted once; tempName formats a wider frontier's.
var tempNames = [...]string{"ws_0", "ws_1", "ws_2", "ws_3", "ws_4", "ws_5", "ws_6", "ws_7"}

func tempName(i int) string {
	if i < len(tempNames) {
		return tempNames[i]
	}
	return fmt.Sprintf("ws_%d", i)
}

// wsIDs are the ids of the scans of the migrated working sets by cut
// position; a view scan's id depends on its name alone.
var wsIDs = func() (ids [len(tempNames)]uint64) {
	for i, name := range tempNames {
		ids[i] = logical.NewViewScan(name, nil).ID()
	}
	return ids
}()

func wsID(i int) uint64 {
	if i < len(wsIDs) {
		return wsIDs[i]
	}
	return logical.NewViewScan(tempName(i), nil).ID()
}

// buildPlan assembles and costs the multistore plan for one frontier.
// The what-if stats of the hypothetical migrated working sets live in a
// plan-local overlay rather than the shared estimator cache, so buildPlan
// never mutates shared state: concurrent costing calls reusing the same
// temp names (ws_0, ws_1, ...) cannot clobber each other.
func (o *Optimizer) buildPlan(raw *logical.Node, frontier []*logical.Node, c *choice) (*MultiPlan, error) {
	plan := &MultiPlan{}
	var totalBytes int64

	// Replace each frontier subtree in the DW part.
	replace := map[*logical.Node]*logical.Node{}
	var overlay map[uint64]stats.Stat
	for i, cutNode := range frontier {
		cut := Cut{Node: cutNode, TempName: tempName(i)}
		ce := o.evalCut(cutNode, c, nil)
		if ce.dwView != nil {
			cut.DWView = ce.dwView
			replace[cutNode] = ce.dwView
			plan.Cuts = append(plan.Cuts, cut)
			continue
		}
		cut.HVPlan = ce.hvPlan
		cut.EstBytes = ce.st.Bytes
		totalBytes += ce.st.Bytes
		if overlay == nil {
			overlay = make(map[uint64]stats.Stat, len(frontier))
		}
		ws := logical.NewViewScan(cut.TempName, cutNode.Schema())
		overlay[ws.ID()] = ce.st
		replace[cutNode] = ws
		if !c.reused(cutNode) {
			plan.EstHV += ce.hvCost
		}
		plan.EstTransfer += ce.xfer
		plan.Cuts = append(plan.Cuts, cut)
	}
	plan.EstTransferBytes = totalBytes

	dwPart, err := substitute(raw, replace)
	if err != nil {
		return nil, err
	}
	if dwPart.UsesUDF() {
		return nil, fmt.Errorf("optimizer: DW part contains a UDF")
	}
	plan.DWPart = dwPart
	plan.EstDW = o.dw.CostPlanWith(dwPart, overlay)
	return plan, nil
}

// substitute copies the tree above the replaced subtrees, swapping them.
func substitute(n *logical.Node, replace map[*logical.Node]*logical.Node) (*logical.Node, error) {
	if r, ok := replace[n]; ok {
		return r, nil
	}
	if len(n.Children) == 0 {
		return nil, fmt.Errorf("optimizer: leaf %s not covered by any cut", n.Kind)
	}
	kids := make([]*logical.Node, len(n.Children))
	for i, c := range n.Children {
		var err error
		if kids[i], err = substitute(c, replace); err != nil {
			return nil, err
		}
	}
	return n.WithChildren(kids), nil
}

// hvOnlyPlan builds and costs full-HV execution. base, when given, is a plan
// space's slot for the whole plan, which holds its HV cost when no HV view
// rewrites it.
func (o *Optimizer) hvOnlyPlan(raw *logical.Node, c *choice, base *spaceCut) *MultiPlan {
	p := c.rewriteHV(raw)
	if base != nil && p == raw {
		return &MultiPlan{HVOnly: true, HVPlan: p, EstHV: base.eval(o).hvCost}
	}
	return &MultiPlan{HVOnly: true, HVPlan: p, EstHV: o.hv.CostPlan(p)}
}

// splitFrontiers lists the frontiers of the query's split plans: every
// enumerated frontier but {root}, which is the HV-only plan.
func (o *Optimizer) splitFrontiers(raw *logical.Node) [][]*logical.Node {
	all := o.enumerateCuts(raw, o.maxPlans)
	out := all[:0]
	for _, frontier := range all {
		if len(frontier) == 1 && frontier[0] == raw {
			continue // HV-only already covered
		}
		out = append(out, frontier)
	}
	return out
}

// EnumeratePlans returns every candidate multistore plan with estimated
// costs, the HV-only plan first, then one plan per enumerated split: Figure
// 3's listing, and the reference PlanSpace is held to. One call rewrites
// each raw node against the HV views at most once (the HV-only plan and
// every cut share the rewrites), so a cut's HVPlan may be a subtree of the
// HV-only plan's HVPlan.
func (o *Optimizer) EnumeratePlans(raw *logical.Node, d Design) []*MultiPlan {
	c := newChoice(d)
	plans := []*MultiPlan{o.hvOnlyPlan(raw, c, nil)}
	for _, frontier := range o.splitFrontiers(raw) {
		p, err := o.buildPlan(raw, frontier, c)
		if err != nil {
			continue // invalid split (UDF above the cut, etc.)
		}
		plans = append(plans, p)
	}
	return plans
}

// Choose returns the cheapest multistore plan for the query under the
// design, chosen in a space of its own that remembers no DW remainder: it
// is chosen in once.
func (o *Optimizer) Choose(raw *logical.Node, d Design) (*MultiPlan, error) {
	s := o.PlanSpace(raw)
	s.once = true
	return s.Choose(d)
}

// PlanSpace is the design-independent half of costing one query: its split
// frontiers — those buildPlan accepts under the empty design: every leaf
// lies under a cut and no node above the cuts calls a UDF, decided when the
// space is built — and, filled the first time a choice needs them, each
// cut's evaluation when no view touches it (spaceCut) and each frontier's
// DW remainder cost when no DW view answers a cut. All of it is a function
// of the plan and the estimator alone, so one space serves every design the
// query is costed or chosen under until the estimator's Version moves (a log
// append moves it too). Beside that, a space chosen in more than once
// remembers the DW remainder's cost of every frontier a design's DW views
// answered (remainderKey). No remainder is built to be costed:
// dw.Store.CostAbove walks the raw nodes above the cuts, and only the
// winning plan is built.
//
// Concurrency contract: building a space and Cost and Choose on it are pure
// reads of the stores, the estimator and the design — no stats recorded, no
// tables staged, no faults drawn — so any number of goroutines may cost
// plans, on one space or many. A slot is filled once (a sync.Once per
// slot), and a remembered remainder is a pure value of its key, so
// whichever concurrent call fills one stores the bits every other would
// have. A view set written while a choice reads it
// may answer one node from before the write and another from after, so a
// caller that chooses beside writers chooses against a snapshot of the
// design (views.Set.Clone of each set) and judges the choice by the sets'
// versions, as multistore's read phase does. The estimator and the logs'
// sizes are read live; their writers move the estimator's Version. The DW
// cost model's index selectivity reads the DW store's own set, not the
// design's: a view it reads is a node of some plan, which a version check
// over the design covers, and a remainder costed while that set moved is
// not remembered.
type PlanSpace struct {
	o         *Optimizer
	raw       *logical.Node
	whole     spaceCut   // raw, which the HV-only plan runs
	cuts      []spaceCut // every distinct cut node of the frontiers once
	frontiers []spaceFrontier
	// once marks a space chosen in once (Optimizer.Choose): nothing would
	// read a remembered remainder again.
	once bool

	mu         sync.Mutex
	remainders map[remainderKey]remainder
}

// spaceCut is one cut node of a space and its evaluation when it runs in HV
// unrewritten and migrates, filled by the first choice that needs it while
// the others wait.
type spaceCut struct {
	node *logical.Node
	fill sync.Once
	ev   cutEval
}

func (sc *spaceCut) eval(o *Optimizer) *cutEval {
	sc.fill.Do(func() { sc.ev = o.evalHV(sc.node, sc.node) })
	return &sc.ev
}

// remainderKey names one DW remainder of a space: the frontier, and per cut
// position the name of the view that answers the cut in DW ("" for a cut
// that runs in HV and migrates) and whether the DW store holds it, which
// decides its index discount. A name fixes the view's definition, and keys
// no dropped view alive in a space that outlives a reorganization. An HV
// cut is a ws_i scan sized by the cut's design-independent estimate,
// whatever HV view rewrote it. Wider frontiers are costed afresh each time.
type remainderKey struct {
	frontier int
	dw       [len(tempNames)]string
	resident uint8 // bit i: the DW store holds dw[i]
}

// remainder is a remembered DW remainder's cost; ok is false when buildPlan
// would refuse the frontier under the key's DW views.
type remainder struct {
	estDW float64
	ok    bool
}

type spaceFrontier struct {
	cuts  []*logical.Node
	slots []int32 // each cut's position in PlanSpace.cuts
	fill  sync.Once
	estDW float64 // the DW remainder's cost when no DW view answers a cut
}

// PlanSpace builds the query's plan space: its frontiers and their cuts,
// nothing costed.
func (o *Optimizer) PlanSpace(raw *logical.Node) *PlanSpace {
	s := &PlanSpace{o: o, raw: raw}
	s.whole.node = raw
	all := o.splitFrontiers(raw)
	width := 0
	for _, f := range all {
		width += len(f)
	}
	var nodes []*logical.Node
	slots := make([]int32, 0, width)
	s.frontiers = make([]spaceFrontier, len(all))
	kept := 0
	for _, f := range all {
		if !splittable(raw, f) {
			continue // refused for what lies above the cuts, so under every design
		}
		at := len(slots)
		for _, n := range f {
			k := slices.Index(nodes, n)
			if k < 0 {
				k = len(nodes)
				nodes = append(nodes, n)
			}
			slots = append(slots, int32(k))
		}
		s.frontiers[kept].cuts, s.frontiers[kept].slots = f, slots[at:]
		kept++
	}
	s.frontiers = s.frontiers[:kept]
	s.cuts = make([]spaceCut, len(nodes))
	for i, n := range nodes {
		s.cuts[i].node = n
	}
	return s
}

// splittable reports whether buildPlan accepts the frontier under the empty
// design: every leaf lies under a cut and no node above the cuts calls a
// UDF.
func splittable(n *logical.Node, frontier []*logical.Node) bool {
	if slices.Contains(frontier, n) {
		return true
	}
	if len(n.Children) == 0 || n.UsesUDFHere() {
		return false
	}
	for _, c := range n.Children {
		if !splittable(c, frontier) {
			return false
		}
	}
	return true
}

// CutIDs lists, sorted and without repeats, the id of every cut of every
// frontier: the raw subtrees a choice may ask the result views about.
func (s *PlanSpace) CutIDs() []uint64 {
	ids := make([]uint64, len(s.cuts))
	for i := range s.cuts {
		ids[i] = s.cuts[i].node.ID()
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}

// Cost is the what-if answer: the estimated cost of the query's best plan
// under a hypothetical design, bit-identical to the minimum EstTotal over
// EnumeratePlans(raw, d).
func (s *PlanSpace) Cost(d Design) float64 {
	_, _, _, total := s.argmin(d)
	return total
}

// Choose returns the query's cheapest plan under the design: the plan
// EnumeratePlans(raw, d) lists first among those of least EstTotal, built
// alone.
func (s *PlanSpace) Choose(d Design) (*MultiPlan, error) {
	c, hvOnly, best, _ := s.argmin(d)
	if best < 0 {
		return hvOnly, nil
	}
	return s.o.buildPlan(s.raw, s.frontiers[best].cuts, c)
}

// argmin is Cost's and Choose's one loop: it visits the plans in
// EnumeratePlans' order, keeps the first of least total (strict <) and
// returns the choice it costed in, the HV-only plan, the winning frontier
// (-1: the HV-only plan) and its total. Every frontier sums as buildPlan and
// EstTotal do, the remainder's cost last: the plain one (plainRemainder)
// when no DW view answers a cut, else the one under the design's DW views
// (remainder).
func (s *PlanSpace) argmin(d Design) (c *choice, hvOnly *MultiPlan, best int, total float64) {
	o := s.o
	c = newChoice(d)
	hvOnly = o.hvOnlyPlan(s.raw, c, &s.whole)
	best, total = -1, hvOnly.EstTotal()
	for fi := range s.frontiers {
		f := &s.frontiers[fi]
		var estHV, estTransfer float64
		answered := false
		for k, cutNode := range f.cuts {
			ce := o.evalCut(cutNode, c, &s.cuts[f.slots[k]])
			if ce.dwView != nil {
				answered = true
				continue
			}
			if !c.reused(cutNode) {
				estHV += ce.hvCost
			}
			estTransfer += ce.xfer
		}
		var estDW float64
		if answered {
			r := s.remainder(fi, c)
			if !r.ok {
				continue
			}
			estDW = r.estDW
		} else {
			estDW = s.plainRemainder(f, c)
		}
		if t := estHV + estTransfer + estDW; t < total {
			best, total = fi, t
		}
	}
	return c, hvOnly, best, total
}

// plainRemainder is the frontier's DW remainder cost when every cut runs in
// HV and migrates, costed the first time a choice needs it: its working
// sets are sized by the cuts' design-independent estimates.
func (s *PlanSpace) plainRemainder(f *spaceFrontier, c *choice) float64 {
	f.fill.Do(func() { f.estDW, _ = s.costRemainder(f, c) })
	return f.estDW
}

// remainder returns the DW remainder's cost of frontier fi under the
// choice's DW views, costed the first time the space meets its key. It is
// remembered only if the DW store's set did not move meanwhile, so the
// key's residency is what the index discount read, and never in a space
// chosen in once. The lock guards only the map: two workers that miss on
// one key both store one value.
func (s *PlanSpace) remainder(fi int, c *choice) remainder {
	f := &s.frontiers[fi]
	key := remainderKey{frontier: fi}
	live := s.o.dw.Views
	at := live.Version()
	keyed := !s.once && len(f.cuts) <= len(key.dw)
	if keyed {
		for i, n := range f.cuts {
			if v := c.cuts[n].dwBy; v != nil {
				key.dw[i] = v.Name
				if live.Has(v.Name) {
					key.resident |= 1 << i
				}
			}
		}
		s.mu.Lock()
		r, ok := s.remainders[key]
		s.mu.Unlock()
		if ok {
			return r
		}
	}
	var r remainder
	r.estDW, r.ok = s.costRemainder(f, c)
	if keyed && live.Version() == at {
		s.mu.Lock()
		if s.remainders == nil {
			s.remainders = map[remainderKey]remainder{}
		}
		s.remainders[key] = r
		s.mu.Unlock()
	}
	return r
}

// costRemainder costs the frontier's DW remainder under the choice's
// evaluations of its cuts without building it (dw.Store.CostAbove): to the
// bit what buildPlan's EstDW would be. It reports false where buildPlan
// refuses the frontier: a DW view's rewrite of a cut calls a UDF.
func (s *PlanSpace) costRemainder(f *spaceFrontier, c *choice) (float64, bool) {
	var buf [len(tempNames)]dw.Stand
	stands := buf[:0]
	for k, n := range f.cuts {
		switch ce := c.cuts[n]; {
		case ce.dwView == nil:
			stands = append(stands, dw.Stand{Name: tempName(k), ID: wsID(k), Stat: ce.st})
		case ce.dwView.UsesUDF():
			return 0, false
		default:
			stands = append(stands, dw.Stand{Node: ce.dwView})
		}
	}
	return s.o.dw.CostAbove(s.raw, f.cuts, stands), true
}
