package multistore

import (
	"slices"
	"sync"

	"miso/internal/logical"
	"miso/internal/optimizer"
	"miso/internal/views"
)

// planVersions is the version tuple of everything Optimizer.Choose reads
// under the system's design: both view sets, the estimator, the count of
// log appends (which the estimator's base sizes follow) and the result
// views the reuse probe asks.
type planVersions struct{ hv, dw, est, logs, results uint64 }

// versions reads the tuple. Every counter in it is atomic and only ever
// grows, so it needs no lock: a reader that read the tuple before what the
// counters guard holds nothing older than its tuple says.
func (s *System) versions() planVersions {
	v := planVersions{hv: s.hv.Views.Version(), dw: s.dw.Views.Version(), est: s.est.Version(), logs: s.appends.Load()}
	if s.results != nil {
		v.results = s.results.Version()
	}
	return v
}

// resultMembers lists the result views; none when the plane is disabled.
func (s *System) resultMembers() []*views.View {
	if s.results == nil {
		return nil
	}
	return s.results.Members()
}

// planEntry is a chosen plan and what its choice read: the tuple, the
// members of both view sets and of the result views, the id of every node
// the estimator may have been asked about — the raw plan's and those of
// every plan EnumeratePlans returned — and, with the reuse plane on, the
// id of every cut the reuse probe was asked about.
type planEntry struct {
	mp              *optimizer.MultiPlan
	ver             planVersions
	hv, dw, results []*views.View
	ids, cuts       []uint64
}

// planCache keeps the chosen plans, one per built plan (one pointer per
// statement text), under a lock of its own: a query's read phase looks up
// and fills it while another query holds System.mu. The lock covers the
// map, logs and the fields of every entry, which holds advances.
type planCache struct {
	mu    sync.Mutex
	plans map[*logical.Node]*planEntry
	logs  uint64 // the log-append count every kept plan was chosen at
}

// planCacheCap bounds the plan cache; a full cache is dropped whole.
const planCacheCap = 1024

// at moves the cache to the log-append count logs: a log append moves every
// base size the estimator reads, so an advance drops every plan, as does a
// full cache. It reports false for a count the cache has passed, which only
// a read phase that read its tuple before the append can hold. Callers hold
// c.mu.
func (c *planCache) at(logs uint64) bool {
	switch {
	case logs < c.logs:
		return false
	case logs > c.logs || len(c.plans) >= planCacheCap:
		clear(c.plans)
		c.logs = logs
	}
	return true
}

// keptPlan returns the plan kept for plan when it still holds under tuple v.
func (s *System) keptPlan(plan *logical.Node, v planVersions) (*optimizer.MultiPlan, bool) {
	c := &s.plans
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.at(v.logs) {
		return nil, false
	}
	if e, ok := c.plans[plan]; ok && s.holds(e, plan, v) {
		return e.mp, true
	}
	return nil, false
}

// keepPlan keeps e as plan's entry, unless a log append has passed it.
func (s *System) keepPlan(plan *logical.Node, e *planEntry) {
	c := &s.plans
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.at(e.ver.logs) {
		c.plans[plan] = e
	}
}

// planHit, when set, sees every plan choose hands out without choosing it
// under s.mu: a kept plan, or (fresh) one the read phase chose. Tests arm
// it to hold such plans to a fresh Choose; it is nil otherwise.
var planHit func(s *System, plan *logical.Node, d optimizer.Design, mp *optimizer.MultiPlan, fresh bool)

// choose is Optimizer.Choose behind the plan cache, at a query's commit or
// for Explain. Choose is a pure function of the plan (one pointer per
// statement text), the design and what versions() counts, so a plan chosen
// under the system's design is handed out while nothing it read has
// changed: the read phase's plan while the tuple is still the one it read
// (one compare), else the kept entry while holds passes, else a choice made
// here — the conflict path. Another design (MS-BASIC's empty one) is
// planned afresh. a is the query's read phase, nil for Explain. Callers
// hold s.mu.
func (s *System) choose(plan *logical.Node, d optimizer.Design, a *ahead) (*optimizer.MultiPlan, error) {
	if d != s.design() {
		return s.opt.Choose(plan, d)
	}
	v := s.versions()
	if a != nil && a.mp != nil && a.ver == v {
		if planHit != nil {
			planHit(s, plan, d, a.mp, a.fresh)
		}
		return a.mp, nil
	}
	if mp, ok := s.keptPlan(plan, v); ok {
		if planHit != nil {
			planHit(s, plan, d, mp, false)
		}
		return mp, nil
	}
	e, err := s.choosePlan(plan, v)
	if err != nil {
		return nil, err
	}
	s.keepPlan(plan, e)
	return e.mp, nil
}

// choosePlan is Optimizer.Choose — Cheapest over EnumeratePlans — against a
// snapshot of the design (Set.Clone of the three sets: members and the
// version they stand at), kept with what it read. The estimator is read
// live; v, read before it, is the tuple of the estimator and the logs the
// entry claims.
func (s *System) choosePlan(plan *logical.Node, v planVersions) (*planEntry, error) {
	d := optimizer.Design{HV: s.hv.Views.Clone(), DW: s.dw.Views.Clone()}
	e := &planEntry{
		ver: planVersions{hv: d.HV.Version(), dw: d.DW.Version(), est: v.est, logs: v.logs},
		hv:  d.HV.Members(), dw: d.DW.Members(),
	}
	if s.results != nil {
		d.Results = s.results.Clone()
		e.results, e.ver.results = d.Results.Members(), d.Results.Version()
	}
	plans := s.opt.EnumeratePlans(plan, d)
	mp, err := optimizer.Cheapest(plans)
	if err != nil {
		return nil, err
	}
	e.mp, e.ids = mp, readIDs(plan, plans)
	if s.results != nil {
		e.cuts = probedCuts(plans)
	}
	return e, nil
}

// holds reports whether the entry's plan is still the one Choose would pick
// now, and if so advances the entry. Its estimates hold while no stat it
// may have read was stored or dropped after the estimator version it holds
// (v.est is the caller's, read earlier); its design holds while no view
// added, removed or replaced since can answer a node of the raw plan, the
// only nodes BestMatch is asked about; its reuse discounts hold while the
// result views hold each cut the probe was asked about as they did. Each
// set's members are read with their version (MembersAt), so an entry's
// members and versions stay one pair whoever advances it. Callers hold
// s.plans.mu.
func (s *System) holds(e *planEntry, plan *logical.Node, v planVersions) bool {
	hv, hvAt := s.hv.Views.MembersAt()
	dw, dwAt := s.dw.Views.MembersAt()
	var results []*views.View
	var resultsAt uint64
	if s.results != nil {
		results, resultsAt = s.results.MembersAt()
	}
	if e.ver.est != v.est && s.est.ChangedSince(e.ids, e.ver.est) ||
		e.ver.hv != hvAt && viewsMoved(e.hv, hv, plan) || e.ver.dw != dwAt && viewsMoved(e.dw, dw, plan) ||
		e.ver.results != resultsAt && resultsMoved(e.results, results, e.cuts) {
		return false
	}
	e.ver = planVersions{hv: hvAt, dw: dwAt, est: max(e.ver.est, v.est), logs: e.ver.logs, results: resultsAt}
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

// probedCuts lists, sorted and without repeats, the raw node of every HV
// cut of every plan in plans: what the reuse probe was asked about. A cut
// a DW view answers is never probed.
func probedCuts(plans []*optimizer.MultiPlan) []uint64 {
	var ids []uint64
	for _, p := range plans {
		for _, c := range p.Cuts {
			if c.DWView == nil {
				ids = append(ids, c.Node.ID())
			}
		}
	}
	slices.Sort(ids)
	return slices.Compact(ids)
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

// readIDs lists, sorted and without repeats, the id of every node of the
// raw plan and of every plan in plans — its HV plan, each cut's HV plan and
// its DW part — a superset of the subtrees the choice estimated.
func readIDs(raw *logical.Node, plans []*optimizer.MultiPlan) []uint64 {
	var ids []uint64
	add := func(n *logical.Node) {
		if n != nil {
			n.Walk(func(m *logical.Node) { ids = append(ids, m.ID()) })
		}
	}
	add(raw)
	for _, p := range plans {
		add(p.HVPlan)
		for _, c := range p.Cuts {
			add(c.HVPlan)
		}
		add(p.DWPart)
	}
	slices.Sort(ids)
	return slices.Compact(ids)
}
