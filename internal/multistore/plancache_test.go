package multistore

// White-box tests for the plan cache: every hit is a plan a fresh Choose
// would pick, the version tuple moves only where something Choose reads is
// written, and a hit allocates nothing for planning.

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"

	"miso/internal/data"
	"miso/internal/faults"
	"miso/internal/logical"
	"miso/internal/optimizer"
	"miso/internal/stats"
	"miso/internal/views"
	"miso/internal/workload"
)

// armPlanOracle holds every plan-cache hit, until the test ends, to a fresh
// Choose of the same plan under the same design: EstTotal bit for bit and
// the same Explain. It returns the hit count.
func armPlanOracle(t testing.TB) *atomic.Int64 {
	hits := new(atomic.Int64)
	planHit = func(s *System, plan *logical.Node, d optimizer.Design, mp *optimizer.MultiPlan) {
		hits.Add(1)
		fresh, err := s.opt.Choose(plan, d)
		switch {
		case err != nil:
			t.Errorf("query %d: a fresh Choose of a cached plan failed: %v", s.seq, err)
		case math.Float64bits(fresh.EstTotal()) != math.Float64bits(mp.EstTotal()) || fresh.Explain() != mp.Explain():
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
func newPlanSystem(t *testing.T, v Variant, mutate func(*Config)) *System {
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
// that plan through runSplit, interleaved with every write the tuple has to
// see: reorganizations, appends, bit rot with quarantine and
// audit repair, and a crash recovery halfway. The armed oracle checks every
// hit, and every variant that plans against its own design must hit at
// least its floor: 1 218, 1 114, 544 and 256 hits were seen in the long run
// (124, 254, 81 and 32 in the short one) where dropping every plan on any
// move of the tuple hit 582, 568, 198 and 0 (46, 94, 28 and 0) times.
// MS-BASIC plans against a fresh empty design and never hits. With the
// reuse plane on every miss admits result views, so an entry holds only
// while they hold each cut its choice probed as they did then: 109, 127,
// 116 and 237 hits in the long run (2, 7, 6 and 20 in the short one),
// where dropping every plan on any admission hit none, and failing an
// entry on any view its plan's nodes carry the id of, re-admissions
// included, hit 77, 81, 82 and 214 (1, 2, 2 and 20).
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
		{VariantMSLru, false, 400, 200, 80, 30},
		{VariantMSBasic, false, 400, 0, 80, 0},
		{VariantMSMiso, true, 2000, 55, 400, 1},
		{VariantMSOff, true, 2000, 60, 400, 3},
		{VariantMSOra, true, 2000, 55, 400, 3},
		{VariantMSLru, true, 2000, 120, 400, 10},
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
// it captured a view (its recency Touch moves nothing), moves neither the
// log-append count nor the result views, and moves the estimator only by
// recording a stat that differs. A plan-cache hit runs a plan whose last execution
// moved nothing, so it records only stats held already: it moves nothing.
// Reorganize, append and quarantine each move the tuple.
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
	planHit = func(*System, *logical.Node, optimizer.Design, *optimizer.MultiPlan) { hits.Add(1) }
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
		if after.logs != before.logs || after.results != before.results {
			t.Errorf("query %d moved the log-append count or the result views: %+v -> %+v", i, before, after)
		}
		if hits.Load() > h && after != before {
			t.Errorf("query %d was a plan-cache hit, yet it moved the tuple: %+v -> %+v", i, before, after)
		}
	}
	// Most moves are DW records above a working-set leaf, keyed on the
	// positional temp names that different statements share. With the leaf
	// itself recorded too, the tuple moved on 509 of the 600 (12 hits).
	t.Logf("the tuple moved on %d of 600 queries; %d plan-cache hits", moved, hits.Load())
	if hits.Load() == 0 {
		t.Fatal("no plan-cache hit: the hit checks above are vacuous")
	}
	if moved > 400 {
		t.Errorf("the tuple moved on %d of 600 queries; want at most 400", moved)
	}

	tweets, _ := sys.Catalog().Log(data.TweetsLog)
	lines := slices.Clone(tweets.Lines[:4])
	for _, w := range []struct {
		name  string
		write func() error
	}{
		{"reorganize", sys.Reorganize},
		{"append", func() error { _, err := sys.AppendToLog(data.TweetsLog, lines); return err }},
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
		}},
	} {
		before := versions()
		if err := w.write(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if versions() == before {
			t.Errorf("%s left the tuple where it was: %+v", w.name, before)
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
		mp := sys.plans[sys.future[i].Plan].mp
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
	planHit = func(*System, *logical.Node, optimizer.Design, *optimizer.MultiPlan) { hits.Add(1) }
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
// did not read — a stat of another subtree, an HV view no node of the query
// matches, re-captured — the next run of queries 0, 5 and 17 on a warm
// MS-MISO system is still a hit: the entry is checked against its reads
// without allocating for it, under TestPlanCacheHitAllocs' ceilings.
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
	planHit = func(*System, *logical.Node, optimizer.Design, *optimizer.MultiPlan) { hits.Add(1) }
	t.Cleanup(func() { planHit = nil })
	elsewhere := logical.NewViewScan("elsewhere", nil)
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
		rows := int64(0)
		for _, w := range []struct {
			name  string
			write func()
		}{
			{"a stat of another subtree", func() {
				rows++
				sys.est.Record(elsewhere, stats.Stat{Rows: rows, Bytes: rows})
			}},
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
