package main

import (
	"context"
	"time"

	"miso/internal/hv"
	"miso/internal/logical"
	"miso/internal/mqo"
	"miso/internal/multistore"
	"miso/internal/optimizer"
	"miso/internal/sqlparser"
	"miso/internal/storage"
)

// probedBackend replays, around every real query, the calls the query makes
// into each layer, and times them from outside. Before the real run it
// calls only what the layers document as read-only: Parse, Build, HashPlan,
// EnumeratePlans and hv.BeginExecute on the cuts of the plan the optimizer
// would choose. dw.ExecuteContext records estimator statistics, so its
// replay waits until the real run has recorded the same ones. It is driven
// from one goroutine: the replays read stores and logs without System.mu.
type probedBackend struct {
	*timedBackend // the real calls, timed; Reorganize and RunDegraded pass through
	cat           *storage.Catalog
	builder       *logical.Builder
	w             workload

	obs       []probeObs
	dwSkipped int
}

// probeObs is what one query's replays measured: per layer, the time of the
// calls the real run also made.
type probeObs struct {
	layer map[string]time.Duration
	run   time.Duration
	nodes int
	plans int
}

func newProbedBackend(inner *timedBackend, cat *storage.Catalog, w workload) *probedBackend {
	return &probedBackend{timedBackend: inner, cat: cat, builder: logical.NewBuilder(cat), w: w}
}

// LogVersion implements mqo.VersionSource over the catalog.
func (p *probedBackend) LogVersion(name string) (gen, lines int, ok bool) {
	log, err := p.cat.Log(name)
	if err != nil {
		return 0, 0, false
	}
	return log.Generation, log.NumLines(), true
}

func (p *probedBackend) timed(query, parent int, name string, fn func()) time.Duration {
	id := p.rec.begin(query, parent, name)
	t := time.Now()
	fn()
	d := time.Since(t)
	p.rec.end(id)
	return d
}

func (p *probedBackend) RunContext(ctx context.Context, sql string) (*multistore.QueryReport, error) {
	ref, _ := ctx.Value(spanKey{}).(spanRef)
	q := ref.query
	root := p.rec.begin(q, ref.id, "query")
	defer p.rec.end(root)

	// Replays before the run see the design and logs the run will see.
	pre := p.rec.begin(q, root, "probe")
	var (
		parse, build, fingerprint, choose, compute, checksum time.Duration
		nodes, plans                                         int
		parsed                                               *sqlparser.Query
		plan                                                 *logical.Node
		mp                                                   *optimizer.MultiPlan
		staged                                               []*storage.Table
		err                                                  error
	)
	parse = p.timed(q, pre, "sqlparser.parse", func() { parsed, err = sqlparser.Parse(sql) })
	if err == nil {
		build = p.timed(q, pre, "logical.build", func() { plan, err = p.builder.Build(parsed) })
	}
	if err == nil {
		plan.Walk(func(*logical.Node) { nodes++ })
		if p.w.reuse {
			fingerprint = p.timed(q, pre, "mqo.fingerprint", func() { mqo.HashPlan(logical.Normalize(plan), p) })
		}
		hvPlans := []*logical.Node{plan} // HV-ONLY executes the raw plan
		if p.w.variant != multistore.VariantHVOnly {
			design := p.sys.Design()
			var all []*optimizer.MultiPlan
			choose = p.timed(q, pre, "optimizer.choose", func() { all = p.sys.Optimizer().EnumeratePlans(plan, design) })
			plans = len(all)
			mp = cheapest(all)
			hvPlans = hvParts(mp)
		}
		for _, hp := range hvPlans {
			var pending *hv.Pending
			compute += p.timed(q, pre, "hv.compute", func() { pending, err = p.sys.HV().BeginExecute(ctx, hp) })
			if err != nil {
				break
			}
			if mp != nil && !mp.HVOnly {
				// A split plan checksums each working set before moving it.
				checksum += p.timed(q, pre, "storage.checksum", func() { storage.ChecksumTable(pending.Table()) })
				staged = append(staged, pending.Table())
			}
		}
	}
	replayed := err == nil
	p.rec.end(pre)

	t := time.Now()
	rep, runErr := p.timedBackend.RunContext(withSpan(ctx, q, root), sql)
	o := probeObs{run: time.Since(t), nodes: nodes, plans: plans, layer: map[string]time.Duration{}}
	if runErr != nil {
		return rep, runErr
	}

	// Count a replay only where the real run did that work: a cache hit or
	// a piggybacked answer stops after the fingerprint.
	o.layer["sqlparser"], o.layer["logical"], o.layer["mqo"] = parse, build, fingerprint
	if !rep.CacheHit && !rep.Piggybacked {
		o.layer["optimizer"] = choose
		if rep.HVOps > 0 {
			o.layer["hv"], o.layer["storage"] = compute, checksum
		}
		if rep.DWOps > 0 {
			if replayed && mp != nil && !mp.HVOnly && len(staged) == len(hvParts(mp)) {
				post := p.rec.begin(q, root, "probe.dw")
				o.layer["dw"] = p.replayDW(ctx, q, post, mp, staged)
				p.rec.end(post)
			} else {
				p.dwSkipped++
			}
		}
	}
	p.obs = append(p.obs, o)
	return rep, nil
}

// replayDW stages the replayed working sets, executes the plan's DW part and
// clears temp space, as the real run just did with the same tables.
func (p *probedBackend) replayDW(ctx context.Context, q, parent int, mp *optimizer.MultiPlan, staged []*storage.Table) time.Duration {
	dw := p.sys.DW()
	i := 0
	for _, cut := range mp.Cuts {
		if cut.DWView == nil {
			dw.StageTemp(cut.TempName, staged[i])
			i++
		}
	}
	defer dw.ClearTemp()
	var err error
	d := p.timed(q, parent, "dw.execute", func() { _, err = dw.ExecuteContext(ctx, mp.DWPart) })
	if err != nil {
		p.dwSkipped++
		return 0
	}
	return d
}

// cheapest picks as Optimizer.Choose does: the first plan of least
// estimated total.
func cheapest(plans []*optimizer.MultiPlan) *optimizer.MultiPlan {
	best := plans[0]
	for _, mp := range plans[1:] {
		if mp.EstTotal() < best.EstTotal() {
			best = mp
		}
	}
	return best
}

// hvParts lists the subplans a chosen plan executes in HV.
func hvParts(mp *optimizer.MultiPlan) []*logical.Node {
	if mp.HVOnly {
		return []*logical.Node{mp.HVPlan}
	}
	var parts []*logical.Node
	for _, cut := range mp.Cuts {
		if cut.DWView == nil {
			parts = append(parts, cut.HVPlan)
		}
	}
	return parts
}
