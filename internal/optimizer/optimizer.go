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
// physical design M = <Vh, Vd> of the paper.
type Design struct {
	HV *views.Set
	DW *views.Set
}

// EmptyDesign returns a design with no views in either store.
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

// Explain renders the multistore plan for humans: where each part runs,
// what migrates, and the estimated cost breakdown.
func (p *MultiPlan) Explain() string {
	var b strings.Builder
	if p.HVOnly {
		fmt.Fprintf(&b, "HV-only plan (est %.1fs):\n", p.EstHV)
		b.WriteString(indent(p.HVPlan.String(), "  "))
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

	// DisableSplits restricts planning to HV-only execution (used by the
	// HV-ONLY and HV-OP system variants).
	DisableSplits bool
	// ReuseProbe, when set, reports whether the cross-query reuse plane
	// holds a result view for a raw cut subtree; such a cut then charges
	// no HV execution cost, steering plan choice toward reused work. The
	// probe must be safe for concurrent calls (PlanSpace.Cost runs under
	// the tuner's parallel what-if workers) and must not mutate optimizer
	// state; costing with a nil probe is unchanged. One plan choice asks
	// it at most once per cut node.
	ReuseProbe func(*logical.Node) bool
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
// within a single plan enumeration: its DW-view rewrite (when one covers
// it), or its HV rewrite, estimated output, HV cost and transfer cost.
// The same subtree appears in many enumerated frontiers; evaluating it
// once per EnumeratePlans call instead of once per frontier removes the
// dominant repeated work from the what-if path. Only the migrated working
// set's temp name differs per frontier (it is positional), so that stays
// in buildPlan. Every memoized value is a pure function of the node and
// the design, which EnumeratePlans holds fixed. base, when given, is a plan
// space's evaluation of the same cuts against the empty design, whose
// estimated output and transfer cost hold under every design and whose HV
// cost holds whenever no HV view rewrites the cut.
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
// every cut's), the cuts' evaluations, with a plan space's (base) when
// it costs a probe, and the reuse probe with its answers so far.
type choice struct {
	d          Design
	rewritten  map[*logical.Node]*logical.Node
	cuts, base map[*logical.Node]*cutEval
	probe      func(*logical.Node) bool
	probed     map[*logical.Node]bool
}

func newChoice(d Design, base map[*logical.Node]*cutEval, probe func(*logical.Node) bool) *choice {
	return &choice{d: d, rewritten: map[*logical.Node]*logical.Node{}, cuts: map[*logical.Node]*cutEval{}, base: base, probe: probe}
}

func (c *choice) rewriteHV(n *logical.Node) *logical.Node { return rewrite(n, c.d.HV, c.rewritten) }

// reused reports whether the reuse probe holds the cut's subresult. A cut
// node appears in many frontiers; the probe is asked about it once per
// choice, which holds the cache still.
func (c *choice) reused(n *logical.Node) bool {
	if c.probe == nil {
		return false
	}
	held, ok := c.probed[n]
	if !ok {
		if c.probed == nil {
			c.probed = map[*logical.Node]bool{}
		}
		held = c.probe(n)
		c.probed[n] = held
	}
	return held
}

func (o *Optimizer) evalCut(cutNode *logical.Node, c *choice) *cutEval {
	if ce, ok := c.cuts[cutNode]; ok {
		return ce
	}
	ce := &cutEval{}
	c.cuts[cutNode] = ce
	if c.d.DW != nil {
		if m, ok := c.d.DW.BestMatch(cutNode); ok {
			if r, err := m.Rewrite(); err == nil {
				ce.dwView, ce.dwBy = r, m.View
				return ce
			}
		}
	}
	ce.hvPlan = c.rewriteHV(cutNode)
	if b := c.base[cutNode]; b != nil {
		// A plan space already holds the cut's design-independent values;
		// only an HV side that a view rewrote is costed again.
		if ce.hvPlan == cutNode {
			c.cuts[cutNode] = b
			return b
		}
		ce.st, ce.xfer = b.st, b.xfer
	} else {
		ce.st = o.est.Estimate(cutNode)
		ce.xfer = transfer.Cost(ce.st.Bytes).Total()
	}
	ce.hvCost = o.hv.CostPlan(ce.hvPlan)
	return ce
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
		ce := o.evalCut(cutNode, c)
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

// hvOnlyPlan builds and costs full-HV execution.
func (o *Optimizer) hvOnlyPlan(raw *logical.Node, c *choice) *MultiPlan {
	p := c.rewriteHV(raw)
	return &MultiPlan{HVOnly: true, HVPlan: p, EstHV: o.hv.CostPlan(p)}
}

// splitFrontiers lists the frontiers of the query's split plans: every
// enumerated frontier but {root}, which is the HV-only plan.
func (o *Optimizer) splitFrontiers(raw *logical.Node) [][]*logical.Node {
	if o.DisableSplits {
		return nil
	}
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
// costs: the HV-only plan first, then one plan per enumerated split.
//
// One call rewrites each raw node against the HV views at most once (the
// HV-only plan and every cut share the rewrites), so a cut's HVPlan may be a
// subtree of the HV-only plan's HVPlan.
//
// Concurrency contract: EnumeratePlans (and Choose above it, and
// PlanSpace.Cost beside it) is a pure read of the stores, the estimator,
// and the design — it records no stats, stages no tables, and draws no
// faults — so any number of goroutines may cost plans concurrently,
// provided nothing concurrently mutates the design's view sets or the
// catalog.
func (o *Optimizer) EnumeratePlans(raw *logical.Node, d Design) []*MultiPlan {
	c := newChoice(d, nil, o.ReuseProbe)
	plans := []*MultiPlan{o.hvOnlyPlan(raw, c)}
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
// design.
func (o *Optimizer) Choose(raw *logical.Node, d Design) (*MultiPlan, error) {
	return Cheapest(o.EnumeratePlans(raw, d))
}

// Cheapest is Choose's selection rule over EnumeratePlans' list: the first
// plan of least EstTotal.
func Cheapest(plans []*MultiPlan) (*MultiPlan, error) {
	if len(plans) == 0 {
		return nil, fmt.Errorf("optimizer: no feasible plan")
	}
	best := plans[0]
	for _, p := range plans[1:] {
		if p.EstTotal() < best.EstTotal() {
			best = p
		}
	}
	return best, nil
}

// PlanSpace is the design-independent half of what-if costing one query:
// its split frontiers and, for each, what buildPlan produces against the
// empty design — every cut's estimated output, transfer cost and no-view HV
// cost, and the DW remainder's cost when no DW view answers a cut. All of
// it is a function of the plan and the estimator alone, so the many probes
// of one tuning phase share one space; it goes stale when the estimator's
// Version moves (or a log's size, which base estimates read) — not on every
// execution, since recording a stat the estimator already holds writes
// nothing.
//
// Beside what it was built with, a space remembers the DW remainder's cost
// of every frontier a probe's DW views answered, keyed on which view
// answers each cut (remainderKey). The remembered costs are pure values of
// the key under the state the space was built in, so whichever concurrent
// Cost call fills one stores the bits every other would have.
type PlanSpace struct {
	o         *Optimizer
	raw       *logical.Node
	frontiers []spaceFrontier
	base      map[*logical.Node]*cutEval

	mu         sync.Mutex
	remainders map[remainderKey]remainder
}

// remainderKey names one DW remainder of a space: the frontier, and per cut
// position the view that answers the cut in DW, nil for a cut that runs in
// HV and migrates. The remainder reads nothing else that a design sets: an
// HV cut is a ws_i scan sized by the cut's design-independent estimate,
// whatever HV view rewrote its HV side. Frontiers wider than the array are
// costed afresh each time.
type remainderKey struct {
	frontier int
	dw       [len(tempNames)]*views.View
}

// remainder is a remembered DW remainder's cost; ok is false when buildPlan
// refused the frontier under the key's DW views.
type remainder struct {
	estDW float64
	ok    bool
}

type spaceFrontier struct {
	cuts  []*logical.Node
	estDW float64 // the DW remainder's cost when no DW view answers a cut
}

// PlanSpace builds the query's plan space.
func (o *Optimizer) PlanSpace(raw *logical.Node) *PlanSpace {
	c := newChoice(EmptyDesign(), nil, nil)
	s := &PlanSpace{o: o, raw: raw, base: c.cuts}
	for _, frontier := range o.splitFrontiers(raw) {
		p, err := o.buildPlan(raw, frontier, c)
		if err != nil {
			continue // refused for what lies above the cuts, so under every design
		}
		s.frontiers = append(s.frontiers, spaceFrontier{cuts: frontier, estDW: p.EstDW})
	}
	return s
}

// Cost is the what-if answer: the estimated cost of the query's best plan
// under a hypothetical design, bit-identical to the minimum EstTotal over
// EnumeratePlans(raw, d). It visits the plans in EnumeratePlans' order and
// re-costs only what the design's views touch: a cut's HV side when an HV
// view rewrote it, and the DW remainder of a frontier one of whose cuts a
// DW view answers, once per space and set of answering views (remainder).
// Every frontier sums its HV and transfer costs in buildPlan's order and
// adds the remainder's cost last, as EstTotal does.
func (s *PlanSpace) Cost(d Design) float64 {
	o := s.o
	c := newChoice(d, s.base, o.ReuseProbe)
	best := o.hvOnlyPlan(s.raw, c).EstTotal()
	for fi, f := range s.frontiers {
		var estHV, estTransfer float64
		answered := false
		for _, cutNode := range f.cuts {
			ce := o.evalCut(cutNode, c)
			if ce.dwView != nil {
				answered = true
				continue
			}
			if !c.reused(cutNode) {
				estHV += ce.hvCost
			}
			estTransfer += ce.xfer
		}
		estDW := f.estDW
		if answered {
			r := s.remainder(fi, c)
			if !r.ok {
				continue
			}
			estDW = r.estDW
		}
		if total := estHV + estTransfer + estDW; total < best {
			best = total
		}
	}
	return best
}

// remainder returns the DW remainder's cost of frontier fi under the
// choice's DW views, building and costing it through buildPlan — the one
// place a DW remainder is built — the first time the space meets its key.
// The lock guards only the map: two workers that miss on one key both
// build, and store the same value.
func (s *PlanSpace) remainder(fi int, c *choice) remainder {
	cuts := s.frontiers[fi].cuts
	key := remainderKey{frontier: fi}
	keyed := len(cuts) <= len(key.dw)
	if keyed {
		for i, n := range cuts {
			key.dw[i] = c.cuts[n].dwBy
		}
		s.mu.Lock()
		r, ok := s.remainders[key]
		s.mu.Unlock()
		if ok {
			return r
		}
	}
	var r remainder
	if p, err := s.o.buildPlan(s.raw, cuts, c); err == nil {
		r = remainder{estDW: p.EstDW, ok: true}
	}
	if keyed {
		s.mu.Lock()
		if s.remainders == nil {
			s.remainders = map[remainderKey]remainder{}
		}
		s.remainders[key] = r
		s.mu.Unlock()
	}
	return r
}

// Cost is the what-if interface for a single probe; a caller with many
// designs to cost for one query builds the PlanSpace once.
func (o *Optimizer) Cost(raw *logical.Node, d Design) float64 {
	return o.PlanSpace(raw).Cost(d)
}
