package multistore

import (
	"fmt"
	"slices"
	"sync"

	"miso/internal/logical"
	"miso/internal/optimizer"
	"miso/internal/views"
)

// planVersions is the version tuple of everything a plan choice reads
// under the system's design: both view sets, the estimator (which a log
// append moves too: base estimates read the logs' sizes) and the result
// views the reuse probe asks.
type planVersions struct{ hv, dw, est, results uint64 }

// versions reads the tuple. Every counter in it is atomic and only ever
// grows, so it needs no lock: a reader that read the tuple before what the
// counters guard holds nothing older than its tuple says.
func (s *System) versions() planVersions {
	v := planVersions{hv: s.hv.Views.Version(), dw: s.dw.Views.Version(), est: s.est.Version()}
	if s.results != nil {
		v.results = s.results.Version()
	}
	return v
}

// planEntry is a statement's plan space (and with the reuse plane on its
// cut ids, what the reuse probe may ask about), which holds while the
// estimator stands at ver.est, and the plan last chosen in it with what
// that choice read: the tuple and the members of the three view sets.
type planEntry struct {
	space           *optimizer.PlanSpace
	cuts            []uint64
	mp              *optimizer.MultiPlan
	ver             planVersions
	hv, dw, results []*views.View
}

// planCache keeps one entry per built plan (one pointer per statement
// text), under a lock of its own: a query's read phase looks up and fills
// it while another query holds System.mu. The lock covers the map and the
// fields of every entry, which holds advances.
type planCache struct {
	mu    sync.Mutex
	plans map[*logical.Node]*planEntry
}

// planCacheCap bounds the plan cache; a full cache is dropped whole.
const planCacheCap = 1024

// keptPlan returns the plan kept for plan while it holds under tuple v,
// else the kept entry to choose in while the estimator stands where v read
// it, else nil: choose in a new space.
func (s *System) keptPlan(plan *logical.Node, v planVersions) (*optimizer.MultiPlan, *planEntry) {
	c := &s.plans
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.plans[plan]
	switch {
	case !ok || e.ver.est != v.est:
		return nil, nil
	case s.holds(e, plan):
		return e.mp, nil
	}
	return nil, e
}

// keepPlan keeps e as plan's entry, unless the entry held was chosen at a
// newer estimator version, which only a read phase that read its tuple
// before the estimator moved can hold.
func (s *System) keepPlan(plan *logical.Node, e *planEntry) {
	c := &s.plans
	c.mu.Lock()
	defer c.mu.Unlock()
	held, ok := c.plans[plan]
	switch {
	case ok && held.ver.est > e.ver.est:
		return
	case !ok && len(c.plans) >= planCacheCap:
		clear(c.plans)
	}
	c.plans[plan] = e
}

// planHit, when set, sees every plan choose hands out without planning it
// under s.mu — a kept plan, or (fresh) one the read phase planned — with
// the route it was planned for. Tests arm it to hold such plans to a fresh
// Choose; it is nil otherwise.
var planHit func(s *System, plan *logical.Node, route Variant, mp *optimizer.MultiPlan, fresh bool)

// planDropped, when set, sees every plan the read phase planned that choose
// does not hand out: something the plan read moved before the commit.
// Tests arm it to count wasted read-phase choices; it is nil otherwise.
var planDropped func(s *System, plan *logical.Node)

// choose hands a query's commit, or Explain, the plan planFor gives for the
// route a names: the read phase's plan while versions() is still the tuple
// it read (one compare), else planFor's under the lock — the conflict path.
// a is the query's read phase (for Explain, one that planned nothing).
// Callers hold s.mu.
func (s *System) choose(plan *logical.Node, a *ahead) (*optimizer.MultiPlan, error) {
	v := s.versions()
	if a.mp != nil && a.ver == v {
		if planHit != nil {
			planHit(s, plan, a.route, a.mp, a.fresh)
		}
		return a.mp, nil
	}
	if a.fresh && planDropped != nil {
		planDropped(s, plan)
	}
	mp, fresh, err := s.planFor(plan, a.route, v)
	if err == nil && !fresh && planHit != nil {
		planHit(s, plan, a.route, mp, false)
	}
	return mp, err
}

// planFor is the one plan source. The plan it returns is a function of the
// plan (one pointer per statement text), the route — the system's variant,
// or HV-OP on the degraded route — and what v, read before it, counts;
// fresh says it planned the plan here rather than found it kept.
// HV-ONLY, HV-OP (hvOpPlan) and DW-ONLY build theirs by rule: no plan space,
// no cost. MS-BASIC chooses under the empty design and the result views,
// never under the HV by-products an abandoned query leaves. The others ask
// the plan cache: the plan kept while it holds under v, else a choice
// against a snapshot of the design (choosePlan), kept. It takes no lock
// but the sets', the estimator's and the plan cache's own.
func (s *System) planFor(plan *logical.Node, route Variant, v planVersions) (*optimizer.MultiPlan, bool, error) {
	switch route {
	case VariantHVOnly:
		return &optimizer.MultiPlan{HVOnly: true, HVPlan: plan}, true, nil
	case VariantHVOp:
		return s.hvOpPlan(plan), true, nil
	case VariantDWOnly:
		return &optimizer.MultiPlan{DWPart: optimizer.RewriteWithViews(plan, s.dw.Views)}, true, nil
	case VariantMSBasic:
		d := optimizer.EmptyDesign()
		d.Results = s.results
		mp, err := s.opt.Choose(plan, d)
		return mp, true, err
	case VariantMSLru, VariantMSMiso, VariantMSOra, VariantMSOff:
		mp, from := s.keptPlan(plan, v)
		if mp != nil {
			return mp, false, nil
		}
		e, err := s.choosePlan(plan, v, from)
		if err != nil {
			return nil, false, err
		}
		s.keepPlan(plan, e)
		return e.mp, true, nil
	}
	return nil, false, fmt.Errorf("multistore: unknown variant %q", route)
}

// hvOpPlan is HV-OP's plan, which the degraded route and fallbackHV run
// too: the whole query in HV, over HV's views.
func (s *System) hvOpPlan(raw *logical.Node) *optimizer.MultiPlan {
	return &optimizer.MultiPlan{HVOnly: true, HVPlan: optimizer.RewriteWithViews(raw, s.hv.Views)}
}

// choosePlan chooses in from's space, or in a new one when from is nil,
// against a snapshot of the design (Set.Clone of the three sets: members
// and the version they stand at), and returns the entry that keeps the
// choice with what it read. The estimator is read live; v.est, read before
// it, is the estimator version the entry claims.
func (s *System) choosePlan(plan *logical.Node, v planVersions, from *planEntry) (*planEntry, error) {
	d := optimizer.Design{HV: s.hv.Views.Clone(), DW: s.dw.Views.Clone()}
	e := &planEntry{
		ver: planVersions{hv: d.HV.Version(), dw: d.DW.Version(), est: v.est},
		hv:  d.HV.Members(), dw: d.DW.Members(),
	}
	if s.results != nil {
		d.Results = s.results.Clone()
		e.results, e.ver.results = d.Results.Members(), d.Results.Version()
	}
	if from != nil {
		e.space, e.cuts = from.space, from.cuts
	} else {
		e.space = s.opt.PlanSpace(plan)
		if s.results != nil {
			e.cuts = e.space.CutIDs()
		}
	}
	mp, err := e.space.Choose(d)
	if err != nil {
		return nil, err
	}
	e.mp = mp
	return e, nil
}

// holds reports whether the entry's plan is still the one its space would
// choose now, its estimator version being the caller's, and if so advances
// the entry. Its design holds while no view added, removed or replaced
// since can answer a node of the raw plan, the only nodes BestMatch is
// asked about; its reuse discounts hold while the result views hold each
// cut of the space as they did. Each set's members are read with their
// version (MembersAt), so an entry's members and versions stay one pair
// whoever advances it. Callers hold s.plans.mu.
func (s *System) holds(e *planEntry, plan *logical.Node) bool {
	hv, hvAt := s.hv.Views.MembersAt()
	dw, dwAt := s.dw.Views.MembersAt()
	var results []*views.View
	var resultsAt uint64
	if s.results != nil {
		results, resultsAt = s.results.MembersAt()
	}
	if e.ver.hv != hvAt && viewsMoved(e.hv, hv, plan) || e.ver.dw != dwAt && viewsMoved(e.dw, dw, plan) ||
		e.ver.results != resultsAt && resultsMoved(e.results, results, e.cuts) {
		return false
	}
	e.ver.hv, e.ver.dw, e.ver.results = hvAt, dwAt, resultsAt
	e.hv, e.dw, e.results = hv, dw, results
	return true
}

// resultsMoved reports whether one of two result-view member lists holds a
// view for one of cuts and the other does not. Result views match on the
// exact tier only, so presence is all the probe reads: a view cleared and
// admitted again answers as it did.
func resultsMoved(old, cur []*views.View, cuts []uint64) bool {
	for _, id := range cuts {
		has := func(v *views.View) bool { return v.ID == id }
		if slices.ContainsFunc(old, has) != slices.ContainsFunc(cur, has) {
			return true
		}
	}
	return false
}

// viewsMoved walks two name-ordered member lists and reports whether a view
// in one but not the other — a view whose Name, Desc or Table differ counts
// as both — matches a node of plan. A Touch copy differs in nothing it reads.
func viewsMoved(old, cur []*views.View, plan *logical.Node) bool {
	for len(old) > 0 || len(cur) > 0 {
		var gone, added *views.View
		switch {
		case len(cur) == 0 || len(old) > 0 && old[0].Name < cur[0].Name:
			gone, old = old[0], old[1:]
		case len(old) == 0 || cur[0].Name < old[0].Name:
			added, cur = cur[0], cur[1:]
		default:
			if o, c := old[0], cur[0]; o.Desc != c.Desc || o.Table != c.Table {
				gone, added = o, c
			}
			old, cur = old[1:], cur[1:]
		}
		if gone != nil && views.MatchesSome(plan, gone) || added != nil && views.MatchesSome(plan, added) {
			return true
		}
	}
	return false
}
