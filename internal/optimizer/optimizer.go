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
	// ReuseProbe, when set, reports whether the cross-query reuse cache
	// holds the materialized subresult for a cut subtree; such a cut then
	// charges no HV execution cost, steering plan choice toward cached
	// work. The probe must be safe for concurrent calls (PlanSpace.Cost
	// runs under the tuner's parallel what-if workers) and must not
	// mutate optimizer state; costing with a nil probe is unchanged.
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
	hvPlan *logical.Node
	st     stats.Stat
	hvCost float64
	xfer   float64
}

// choice is what one plan choice under one design shares across its
// frontiers: the design, the HV rewrites of raw nodes (hvOnlyPlan's and
// every cut's), and the cuts' evaluations, with a plan space's (base) when
// it costs a probe.
type choice struct {
	d          Design
	rewritten  map[*logical.Node]*logical.Node
	cuts, base map[*logical.Node]*cutEval
}

func newChoice(d Design, base map[*logical.Node]*cutEval) *choice {
	return &choice{d: d, rewritten: map[*logical.Node]*logical.Node{}, cuts: map[*logical.Node]*cutEval{}, base: base}
}

func (c *choice) rewriteHV(n *logical.Node) *logical.Node { return rewrite(n, c.d.HV, c.rewritten) }

func (o *Optimizer) evalCut(cutNode *logical.Node, c *choice) *cutEval {
	if ce, ok := c.cuts[cutNode]; ok {
		return ce
	}
	ce := &cutEval{}
	c.cuts[cutNode] = ce
	if c.d.DW != nil {
		if m, ok := c.d.DW.BestMatch(cutNode); ok {
			if r, err := m.Rewrite(); err == nil {
				ce.dwView = r
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
		if o.ReuseProbe == nil || !o.ReuseProbe(cutNode) {
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
	c := newChoice(d, nil)
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
// of one tuning phase share one space; it is immutable once built and goes
// stale when the estimator's Version moves (or a log's size, which base
// estimates read) — not on every execution, since recording a stat the
// estimator already holds writes nothing.
type PlanSpace struct {
	o         *Optimizer
	raw       *logical.Node
	frontiers []spaceFrontier
	base      map[*logical.Node]*cutEval
}

type spaceFrontier struct {
	cuts  []*logical.Node
	estDW float64 // the DW remainder's cost when no DW view answers a cut
}

// PlanSpace builds the query's plan space.
func (o *Optimizer) PlanSpace(raw *logical.Node) *PlanSpace {
	c := newChoice(EmptyDesign(), nil)
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
// view rewrote it, and — through buildPlan, the one place a DW remainder is
// built and costed — a frontier one of whose cuts a DW view answers. Every
// other frontier sums the stored floats in buildPlan's order.
func (s *PlanSpace) Cost(d Design) float64 {
	o := s.o
	c := newChoice(d, s.base)
	best := o.hvOnlyPlan(s.raw, c).EstTotal()
frontiers:
	for _, f := range s.frontiers {
		var estHV, estTransfer float64
		for _, cutNode := range f.cuts {
			ce := o.evalCut(cutNode, c)
			if ce.dwView != nil {
				if p, err := o.buildPlan(s.raw, f.cuts, c); err == nil && p.EstTotal() < best {
					best = p.EstTotal()
				}
				continue frontiers
			}
			if o.ReuseProbe == nil || !o.ReuseProbe(cutNode) {
				estHV += ce.hvCost
			}
			estTransfer += ce.xfer
		}
		if total := estHV + estTransfer + f.estDW; total < best {
			best = total
		}
	}
	return best
}

// Cost is the what-if interface for a single probe; a caller with many
// designs to cost for one query builds the PlanSpace once.
func (o *Optimizer) Cost(raw *logical.Node, d Design) float64 {
	return o.PlanSpace(raw).Cost(d)
}
