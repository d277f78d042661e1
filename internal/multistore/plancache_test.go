package multistore

// White-box tests for the plan cache: every hit is a plan a fresh Choose
// would pick, the version tuple moves only where something Choose reads is
// written, and a hit allocates nothing for planning.

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"miso/internal/data"
	"miso/internal/faults"
	"miso/internal/logical"
	"miso/internal/optimizer"
	"miso/internal/views"
	"miso/internal/workload"
)

// enumeratedChoice is the oracle a plan choice is held to, sharing no plan
// space with it: the first plan of least EstTotal over EnumeratePlans.
func enumeratedChoice(s *System, plan *logical.Node, d optimizer.Design) *optimizer.MultiPlan {
	plans := s.opt.EnumeratePlans(plan, d)
	best := plans[0]
	for _, p := range plans[1:] {
		if p.EstTotal() < best.EstTotal() {
			best = p
		}
	}
	return best
}

// armPlanOracle holds every plan a commit takes without planning it under
// the lock — a plan-cache hit or a plan its read phase chose — on a route
// that chooses by cost, until the test ends, to a fresh enumeration of the
// same plan under the design the route chooses under (enumeratedChoice):
// EstTotal bit for bit and the same Explain. It returns the hit count; a
// read-phase plan is not a hit.
func armPlanOracle(t testing.TB) *atomic.Int64 {
	hits := new(atomic.Int64)
	planHit = func(s *System, plan *logical.Node, route Variant, mp *optimizer.MultiPlan, ahead bool) {
		if !ahead {
			hits.Add(1)
		}
		d := s.design()
		switch route {
		case VariantHVOnly, VariantHVOp, VariantDWOnly:
			return // built by rule, not chosen
		case VariantMSBasic:
			d = optimizer.EmptyDesign()
			d.Results = s.results
		}
		if fresh := enumeratedChoice(s, plan, d); math.Float64bits(fresh.EstTotal()) != math.Float64bits(mp.EstTotal()) || fresh.Explain() != mp.Explain() {
			t.Errorf("query %d: stale plan\n--- cached\n%s--- fresh\n%s", s.seq, mp.Explain(), fresh.Explain())
		}
	}
	t.Cleanup(func() { planHit = nil })
	return hits
}

// servedDraw is the served benchmark workloads' query stream for one client
// at seed 42: Zipf(1.2) over the 32 paper queries, rank k the k-th query.
func servedDraw(client int) func() int {
	r := rand.New(rand.NewSource(42*7919 + int64(client)))
	z := rand.NewZipf(r, 1.2, 1, uint64(len(workload.SQLs())-1))
	return func() int { return int(z.Uint64()) }
}

// newPlanSystem is the served workloads' system at small scale: reuse off,
// reorganizations left to the caller.
func newPlanSystem(t testing.TB, v Variant, mutate func(*Config)) *System {
	t.Helper()
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	cfg := DefaultConfig(v)
	cfg.SetBudgets(cat, 2.0, 10<<30)
	cfg.ReorgEvery = 0
	if mutate != nil {
		mutate(&cfg)
	}
	sys := New(cfg, cat)
	if err := sys.ProvideFutureWorkload(workload.SQLs()); err != nil {
		t.Fatalf("future workload: %v", err)
	}
	return sys
}

// quarantineRotted quarantines every view in the design whose content no
// longer verifies, the way the audit does when a repair fails.
func (s *System) quarantineRotted() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, st := range s.stores() {
		for _, v := range st.views.All() {
			if !v.Verify() {
				s.quarantineView(v.Name, st.views)
			}
		}
	}
}

// TestCachedPlanEqualsFreshChoose runs the served Zipf draw on the variants
// that choose their plans by cost, interleaved with every write the tuple has to
// see: reorganizations, appends, bit rot with quarantine and
// audit repair, and a crash recovery halfway. The armed oracle checks every
// hit and every plan a read phase chose, and every variant that plans
// against its own design must hit at least its floor: 1 126, 1 404, 1 403
// and 130 hits were seen in the long run (177, 202, 237 and 18 in the short
// one) once a kept plan space stood exactly as long as the estimator's
// version, where dropping every plan on any move of the tuple hit 582, 568,
// 198 and 0 (46, 94, 28 and 0) times. MS-LRU's floors are the lowest: it
// keeps each query's working sets as views, so 76 of its 400 queries
// record a stat nobody held (none re-stores one), and each of them retires
// every kept space (it hit 258 times, 33 short, while an entry was proved
// stat by stat). MS-BASIC plans against a fresh empty design and
// never hits. With the reuse plane on every miss admits result views, so an
// entry holds only while they hold each cut of its space as they did then:
// 56, 87, 70 and 52 hits in the long run (2, 9, 13 and 3 in the short one),
// where dropping every plan on any admission hit none.
func TestCachedPlanEqualsFreshChoose(t *testing.T) {
	short := testing.Short() || raceEnabled
	sqls := workload.SQLs()
	for _, c := range []struct {
		v          Variant
		reuse      bool
		n, floor   int // the long run
		sn, sfloor int // the short one
	}{
		{VariantMSMiso, false, 2000, 1000, 400, 90},
		{VariantMSOff, false, 2000, 1000, 400, 200},
		{VariantMSOra, false, 2000, 450, 400, 60},
		{VariantMSLru, false, 400, 110, 80, 15},
		{VariantMSBasic, false, 400, 0, 80, 0},
		{VariantMSMiso, true, 2000, 55, 400, 1},
		{VariantMSOff, true, 2000, 60, 400, 3},
		{VariantMSOra, true, 2000, 55, 400, 3},
		{VariantMSLru, true, 2000, 45, 400, 2},
	} {
		v, reuse, n, floor := c.v, c.reuse, c.n, c.floor
		if short {
			n, floor = c.sn, c.sfloor
		}
		name := string(v)
		if reuse {
			name += " reuse"
		}
		t.Run(name, func(t *testing.T) {
			hits := armPlanOracle(t)
			sys := newPlanSystem(t, v, func(c *Config) {
				c.CheckpointEvery = 16
				c.Faults = faults.Profile{ViewRot: 0.02}
				c.FaultSeed = 42
				c.Reuse.Enabled = reuse
			})
			cat := sys.Catalog()
			tweets, _ := cat.Log(data.TweetsLog)
			extra := slices.Clone(tweets.Lines[:40])
			next := servedDraw(0)
			for i := 1; i <= n; i++ {
				var err error
				switch {
				case i == n/2:
					d := sys.Durability()
					sys, _, err = Recover(sys.cfg, cat, d.Latest(), d.WAL())
				case i%100 == 0:
					// As serve's reorganization hook does.
					sys.InvalidateReuse()
					err = sys.Reorganize()
				case i%250 == 50:
					_, err = sys.AppendToLog(data.TweetsLog, extra[i/250*4:][:4])
				case i%60 == 0:
					sys.quarantineRotted()
				case i%90 == 0:
					_, _, err = sys.AuditViews("", 0, true)
				}
				if err != nil {
					t.Fatalf("step %d: %v", i, err)
				}
				if _, err := sys.Run(sqls[next()]); err != nil {
					t.Fatalf("query %d: %v", i, err)
				}
			}
			t.Logf("%s: %d plan-cache hits in %d queries", name, hits.Load(), n)
			if hits.Load() < int64(floor) {
				t.Errorf("%s: %d plan-cache hits in %d queries, floor %d", name, hits.Load(), n, floor)
			}
		})
	}
}

// TestPlanVersionsMoveOnlyOnWrites is the version tuple's contract on the
// served_cold draw: after a warming pass, a query moves Vh or Vd only when
// it captured a view (its recency Touch moves nothing), never moves the
// result views, and moves the estimator only by recording a stat that
// differs — which, once the pass is done, no query does: the tuple stands
// through all 600. A plan-cache hit runs a plan whose last execution moved
// nothing, so it records only stats held already: it moves nothing.
// Reorganize, append (with or without a stat to drop) and quarantine each
// move the tuple.
func TestPlanVersionsMoveOnlyOnWrites(t *testing.T) {
	sys := newPlanSystem(t, VariantMSMiso, nil)
	sqls := workload.SQLs()
	for i, sql := range sqls {
		if _, err := sys.Run(sql); err != nil {
			t.Fatalf("warm-up query %d: %v", i, err)
		}
	}
	versions := func() planVersions {
		sys.mu.Lock()
		defer sys.mu.Unlock()
		return sys.versions()
	}
	hits := new(atomic.Int64)
	planHit = func(_ *System, _ *logical.Node, _ Variant, _ *optimizer.MultiPlan, fresh bool) {
		if !fresh {
			hits.Add(1)
		}
	}
	t.Cleanup(func() { planHit = nil })

	draws := []func() int{servedDraw(0), servedDraw(1)}
	moved := 0
	for i := 0; i < 600; i++ {
		before, h := versions(), hits.Load()
		rep, err := sys.Run(sqls[draws[i%2]()])
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		after := versions()
		if after != before {
			moved++
		}
		if rep.NewViews == 0 && (after.hv != before.hv || after.dw != before.dw) {
			t.Errorf("query %d captured nothing, yet the design's version moved: %+v -> %+v", i, before, after)
		}
		if after.results != before.results {
			t.Errorf("query %d moved the result views: %+v -> %+v", i, before, after)
		}
		if hits.Load() > h && after != before {
			t.Errorf("query %d was a plan-cache hit, yet it moved the tuple: %+v -> %+v", i, before, after)
		}
	}
	// A served query writes nothing new once the warming pass is done: DW
	// records nothing over a working set, whose ids are positional and
	// shared by statements. With the nodes above a working-set leaf
	// recorded, the tuple moved on 266 of the 600 (171 hits); with the leaf
	// recorded too, on 509 (12 hits).
	t.Logf("the tuple moved on %d of 600 queries; %d plan-cache hits", moved, hits.Load())
	if moved != 0 {
		t.Errorf("the tuple moved on %d of 600 queries that wrote nothing; want none", moved)
	}
	if hits.Load() < 500 {
		t.Errorf("%d plan-cache hits in 600 queries; want at least 500", hits.Load())
	}

	tweets, _ := sys.Catalog().Log(data.TweetsLog)
	lines := slices.Clone(tweets.Lines[:4])
	appendLines := func() error { _, err := sys.AppendToLog(data.TweetsLog, lines); return err }
	for _, w := range []struct {
		name  string
		write func() error
		est   bool // the write must move the estimator's version itself
	}{
		{"reorganize", sys.Reorganize, false},
		{"append", appendLines, true},
		// The first append dropped every stat over the log; base estimates
		// read its size, so the next one moves the estimator all the same.
		{"an append with no stat left to drop", appendLines, true},
		{"quarantine", func() error {
			sys.mu.Lock()
			defer sys.mu.Unlock()
			for _, st := range sys.stores() {
				if all := st.views.All(); len(all) > 0 {
					sys.quarantineView(all[0].Name, st.views)
					return nil
				}
			}
			t.Fatal("no view left to quarantine")
			return nil
		}, false},
	} {
		before := versions()
		if err := w.write(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if after := versions(); after == before || w.est && after.est == before.est {
			t.Errorf("%s left the tuple, or the estimator it must move, where it was: %+v -> %+v", w.name, before, after)
		}
	}
}

// TestPlanCacheSeesTheReuseCache: with the reuse plane on, the optimizer's
// probe discounts a cut a result view answers, so admitting one must move
// the tuple and fail the kept plan. Served traffic rarely shows it — every
// cold run admits result views, and a repeat is answered before planning —
// so Explain, which plans without running, asks twice around one admission.
func TestPlanCacheSeesTheReuseCache(t *testing.T) {
	sys := newPlanSystem(t, VariantMSMiso, func(c *Config) { c.Reuse.Enabled = true })
	sqls := workload.SQLs()
	last, err := sys.Run(sqls[0]) // its answer is the table admitted below
	if err != nil {
		t.Fatal(err)
	}
	hits := armPlanOracle(t)
	for i, sql := range sqls {
		sys.InvalidateReuse()
		first, err := sys.Explain(sql)
		if err != nil {
			t.Fatal(err)
		}
		sys.mu.Lock()
		mp := sys.plans.plans[sys.future[i].Plan].mp
		var cut *logical.Node
		for _, c := range mp.Cuts {
			if c.DWView == nil && c.HVPlan.Kind != logical.KindViewScan {
				cut = c.Node // a cut with HV work to discount
			}
		}
		if cut != nil {
			sys.admitResult(cut, last.Result, sys.seq)
		}
		sys.mu.Unlock()
		if cut == nil {
			continue
		}
		h := hits.Load()
		again, err := sys.Explain(sql)
		if err != nil {
			t.Fatal(err)
		}
		if hits.Load() != h {
			t.Fatalf("query %d: planned from the cache after a cut's subresult was admitted", i)
		}
		if again == first {
			t.Fatalf("query %d: the admitted subresult left the plan as it was:\n%s", i, first)
		}
		return
	}
	t.Fatal("no paper query plans an HV cut a result view can answer")
}

// TestPlanCacheHitAllocs guards what a plan-cache hit saves: on a warm
// MS-MISO system with reuse off, queries 0, 5 and 17 repeated execute in
// full, but plan from the cache. A run allocates 499, 424 and 306 times
// here (513, 440 and 319 while every prologue swept the views and every
// plan walk asked each node for its UDFs), against 1 454, 952 and 655 when
// every run chose afresh and recorded every stat again; the ceilings sit a
// quarter above 513, 440 and 319.
func TestPlanCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	sys := newPlanSystem(t, VariantMSMiso, nil)
	sqls := workload.SQLs()
	for i, sql := range sqls {
		if _, err := sys.Run(sql); err != nil {
			t.Fatalf("warm-up query %d: %v", i, err)
		}
	}
	var hits atomic.Int64
	planHit = func(_ *System, _ *logical.Node, _ Variant, _ *optimizer.MultiPlan, fresh bool) {
		if !fresh {
			hits.Add(1)
		}
	}
	t.Cleanup(func() { planHit = nil })
	for _, c := range []struct {
		query   int
		ceiling float64
	}{{0, 640}, {5, 550}, {17, 400}} {
		sql := sqls[c.query]
		// The first repeats may record what the query's last run under
		// another design did not, which moves the estimator.
		for try := 0; ; try++ {
			h := hits.Load()
			if _, err := sys.Run(sql); err != nil {
				t.Fatalf("query %d: %v", c.query, err)
			}
			if hits.Load() > h {
				break
			}
			if try == 3 {
				t.Fatalf("query %d: no plan-cache hit in four repeats", c.query)
			}
		}
		h := hits.Load()
		allocs := testing.AllocsPerRun(20, func() {
			if _, err := sys.Run(sql); err != nil {
				t.Fatalf("query %d: %v", c.query, err)
			}
		})
		if got := hits.Load() - h; got != 21 {
			t.Fatalf("query %d: %d plan-cache hits in 21 runs", c.query, got)
		}
		t.Logf("query %d: a run with a cached plan allocates %.0f times", c.query, allocs)
		if allocs > c.ceiling {
			t.Errorf("query %d: a run with a cached plan allocates %.0f times, ceiling %.0f", c.query, allocs, c.ceiling)
		}
	}
}

// TestPlanCacheRevalidateAllocs: after a write to something a cached plan
// did not read — an HV view no node of the query matches, re-captured — the
// next run of queries 0, 5 and 17 on a warm MS-MISO system is still a hit:
// the entry is checked against the design's diff without allocating for
// it, under TestPlanCacheHitAllocs' ceilings. (A stat of another subtree
// moves the estimator's version, which retires every kept space.)
func TestPlanCacheRevalidateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	sys := newPlanSystem(t, VariantMSMiso, nil)
	sqls := workload.SQLs()
	for i, sql := range sqls {
		if _, err := sys.Run(sql); err != nil {
			t.Fatalf("warm-up query %d: %v", i, err)
		}
	}
	var hits atomic.Int64
	planHit = func(_ *System, _ *logical.Node, _ Variant, _ *optimizer.MultiPlan, fresh bool) {
		if !fresh {
			hits.Add(1)
		}
	}
	t.Cleanup(func() { planHit = nil })
	for _, c := range []struct {
		query   int
		ceiling float64
	}{{0, 640}, {5, 550}, {17, 400}} {
		sql := sqls[c.query]
		plan, err := sys.builder.BuildSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		var other *views.View
		for _, v := range sys.hv.Views.Members() {
			if !views.MatchesSome(plan, v) {
				other = v
				break
			}
		}
		if other == nil {
			t.Fatalf("query %d: every HV view matches a node of it", c.query)
		}
		for _, w := range []struct {
			name  string
			write func()
		}{
			{"an unrelated HV capture", func() {
				sys.hv.Views.Remove(other.Name)
				sys.hv.Views.Add(other)
			}},
		} {
			for try := 0; ; try++ {
				h := hits.Load()
				if _, err := sys.Run(sql); err != nil {
					t.Fatalf("query %d: %v", c.query, err)
				}
				if hits.Load() > h {
					break
				}
				if try == 3 {
					t.Fatalf("query %d: no plan-cache hit in four repeats", c.query)
				}
			}
			h := hits.Load()
			allocs := allocsAfter(20, w.write, func() {
				if _, err := sys.Run(sql); err != nil {
					t.Fatalf("query %d: %v", c.query, err)
				}
			})
			if got := hits.Load() - h; got != 20 {
				t.Fatalf("query %d after %s: %d plan-cache hits in 20 runs", c.query, w.name, got)
			}
			t.Logf("query %d: a run after %s allocates %.0f times", c.query, w.name, allocs)
			if allocs > c.ceiling {
				t.Errorf("query %d: a run after %s allocates %.0f times, ceiling %.0f", c.query, w.name, allocs, c.ceiling)
			}
		}
	}
}

// allocsAfter is testing.AllocsPerRun for a run that follows a write: the
// mean allocations of run over runs rounds, with write outside the count.
func allocsAfter(runs int, write, run func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var total uint64
	var before, after runtime.MemStats
	for range runs {
		write()
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		total += after.Mallocs - before.Mallocs
	}
	return float64(total) / float64(runs)
}

// TestExplainNamesThePlanThatRuns: on each of the eight variants at small
// scale, after one warming query (DW-ONLY's ETL, MS-OFF's offline design),
// Explain must print the plan the next run of the same query executes — the
// very text of that plan's Explain, seen as the commit takes it (planHit) —
// and the route it names must be the route the report records: HV-only,
// DW-only (every cut, if any, answered in DW) or split.
func TestExplainNamesThePlanThatRuns(t *testing.T) {
	sqls := workload.SQLs()
	for _, v := range []Variant{
		VariantHVOnly, VariantDWOnly, VariantHVOp, VariantMSBasic,
		VariantMSOff, VariantMSLru, VariantMSMiso, VariantMSOra,
	} {
		t.Run(string(v), func(t *testing.T) {
			sys := newPlanSystem(t, v, nil)
			if _, err := sys.Run(sqls[0]); err != nil {
				t.Fatalf("warming query: %v", err)
			}
			for _, sql := range sqls[1:4] {
				text, err := sys.Explain(sql)
				if err != nil {
					t.Fatal(err)
				}
				var ran []*optimizer.MultiPlan
				planHit = func(_ *System, _ *logical.Node, _ Variant, mp *optimizer.MultiPlan, _ bool) {
					ran = append(ran, mp)
				}
				rep, err := sys.Run(sql)
				planHit = nil
				if err != nil {
					t.Fatal(err)
				}
				route := "split"
				switch {
				case strings.HasPrefix(text, "HV-only plan"):
					route = "HV-only"
				case strings.HasPrefix(text, "DW-only plan") || !strings.Contains(text, "executes in HV"):
					route = "DW-only"
				}
				ranRoute := "split"
				switch {
				case rep.HVOnly:
					ranRoute = "HV-only"
				case rep.BypassedHV:
					ranRoute = "DW-only"
				}
				if route != ranRoute {
					t.Errorf("Explain names a %s plan, the run went %s:\n%s", route, ranRoute, text)
				}
				if len(ran) != 1 {
					t.Fatalf("the commit took %d plans without planning under the lock, want the read phase's", len(ran))
				}
				if got := ran[0].Explain(); got != text {
					t.Errorf("Explain printed\n%sthe run executed\n%s", text, got)
				}
			}
		})
	}
}
