package multistore

// White-box tests for the cross-query reuse plane: semantic-cache hits
// serving digest-identical answers, strict invalidation on every trigger
// (log appends, reorganization, crash recovery, audit quarantine),
// concurrent repeats answered by the cache, and the guarantee that
// reuse-enabled execution never changes what a query answers. They reach
// into the system's reuse plane, window and future workload, so they live
// inside the package.

import (
	"context"
	"encoding/json"
	"sync"
	"testing"

	"miso/internal/data"
	"miso/internal/durability"
	"miso/internal/logical"
	"miso/internal/storage"
	"miso/internal/workload"
)

func newReuseSystem(t *testing.T, v Variant, mutate func(*Config)) *System {
	t.Helper()
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	cfg := DefaultConfig(v)
	cfg.SetBudgets(cat, 2.0, 10<<30)
	cfg.Reuse.Enabled = true
	if mutate != nil {
		mutate(&cfg)
	}
	sys := New(cfg, cat)
	if err := sys.ProvideFutureWorkload(workload.SQLs()); err != nil {
		t.Fatalf("future workload: %v", err)
	}
	return sys
}

func reuseTweetLine(t *testing.T, id int64) string {
	t.Helper()
	b, err := json.Marshal(map[string]any{
		"tweet_id": id, "user_id": int64(1), "ts": int64(1357000000),
		"text": "amazing burger #food", "hashtag": "food", "lang": "en",
		"retweets": int64(300), "followers": int64(5000),
	})
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestReuseCacheHitIdenticalToColdExecution runs the workload twice on a
// reuse-enabled system: every second-pass query must be a cache hit whose
// answer (schema + rows, via ChecksumData — result-table names embed the
// physical plan, which legitimately evolves with view capture) is
// identical to what a reuse-disabled system computes cold. Reorgs are
// disabled so the cache survives the full double pass.
func TestReuseCacheHitIdenticalToColdExecution(t *testing.T) {
	catOff, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfgOff := DefaultConfig(VariantMSMiso)
	cfgOff.SetBudgets(catOff, 2.0, 10<<30)
	cfgOff.ReorgEvery = 0
	off := New(cfgOff, catOff)
	if err := off.ProvideFutureWorkload(workload.SQLs()); err != nil {
		t.Fatal(err)
	}
	on := newReuseSystem(t, VariantMSMiso, func(c *Config) { c.ReorgEvery = 0 })

	sqls := workload.SQLs()
	coldSums := make([]uint64, len(sqls))
	for i, sql := range sqls {
		rep, err := off.Run(sql)
		if err != nil {
			t.Fatalf("off query %d: %v", i, err)
		}
		coldSums[i] = storage.ChecksumData(rep.Result)
	}
	for i, sql := range sqls {
		rep, err := on.Run(sql)
		if err != nil {
			t.Fatalf("on query %d: %v", i, err)
		}
		if got := storage.ChecksumData(rep.Result); got != coldSums[i] {
			t.Fatalf("query %d: reuse-enabled first pass diverged from cold execution", i)
		}
	}
	for i, sql := range sqls {
		rep, err := on.Run(sql)
		if err != nil {
			t.Fatalf("repeat query %d: %v", i, err)
		}
		if !rep.CacheHit {
			t.Errorf("repeat query %d executed cold, want cache hit", i)
		}
		if rep.Total() != 0 {
			t.Errorf("repeat query %d charged %f simulated seconds, want 0", i, rep.Total())
		}
		if got := storage.ChecksumData(rep.Result); got != coldSums[i] {
			t.Fatalf("repeat query %d: cached answer diverged from cold execution", i)
		}
	}
	m := on.Metrics()
	if m.CacheHits != len(sqls) {
		t.Errorf("CacheHits = %d, want %d", m.CacheHits, len(sqls))
	}
	if m.Queries != 2*len(sqls) {
		t.Errorf("Queries = %d, want %d", m.Queries, 2*len(sqls))
	}
	if err := on.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReuseInvalidationOnAppend: an append changes the log's content
// version, so a warm cache must neither serve the old
// answer nor be consulted under the old fingerprint.
func TestReuseInvalidationOnAppend(t *testing.T) {
	sys := newReuseSystem(t, VariantMSMiso, nil)
	count := `SELECT COUNT(*) AS n FROM tweets WHERE hashtag = 'food' AND retweets > 250`
	before, err := sys.Run(count)
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := sys.Run(count); err != nil || !rep.CacheHit {
		t.Fatalf("warmup repeat: err=%v hit=%v", err, rep.CacheHit)
	}
	if _, err := sys.AppendToLog(data.TweetsLog, []string{
		reuseTweetLine(t, 2_000_001), reuseTweetLine(t, 2_000_002),
	}); err != nil {
		t.Fatal(err)
	}
	if st := sys.ReuseStats().Cache; st.Entries != 0 || st.Invalidations == 0 {
		t.Fatalf("append did not clear the cache: %+v", st)
	}
	after, err := sys.Run(count)
	if err != nil {
		t.Fatal(err)
	}
	if after.CacheHit {
		t.Fatal("post-append query served from cache")
	}
	if after.Result.Rows[0][0].I != before.Result.Rows[0][0].I+2 {
		t.Errorf("count %d -> %d, want +2", before.Result.Rows[0][0].I, after.Result.Rows[0][0].I)
	}
	// The fresh answer re-caches under the new content version.
	if rep, err := sys.Run(count); err != nil || !rep.CacheHit {
		t.Fatalf("post-append repeat: err=%v hit=%v", err, rep.CacheHit)
	}
}

// TestReuseInvalidationOnReorganize: an explicit mid-soak reorganization
// clears the cache at phase start (the drain-barrier trigger), and
// queries re-cache afterward.
func TestReuseInvalidationOnReorganize(t *testing.T) {
	sys := newReuseSystem(t, VariantMSMiso, nil)
	sqls := workload.SQLs()
	for i := 0; i < 4; i++ {
		if _, err := sys.Run(sqls[i]); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if st := sys.ReuseStats().Cache; st.Entries == 0 {
		t.Fatal("nothing cached before reorg")
	}
	if err := sys.Reorganize(); err != nil {
		t.Fatalf("reorganize: %v", err)
	}
	if st := sys.ReuseStats().Cache; st.Entries != 0 || st.Invalidations == 0 {
		t.Fatalf("reorg did not clear the cache: %+v", st)
	}
	rep, err := sys.Run(sqls[0])
	if err != nil {
		t.Fatal(err)
	}
	if rep.CacheHit {
		t.Fatal("post-reorg query served from cache")
	}
	if rep2, err := sys.Run(sqls[0]); err != nil || !rep2.CacheHit {
		t.Fatalf("post-reorg repeat: err=%v hit=%v", err, rep2.CacheHit)
	}
}

// TestReuseInvalidationOnRecover: a crash + WAL replay builds a fresh
// System whose reuse plane starts empty — recovery never trusts cached
// materializations — and post-recovery answers match pre-crash ones.
func TestReuseInvalidationOnRecover(t *testing.T) {
	sys := newReuseSystem(t, VariantMSMiso, func(c *Config) {
		c.CheckpointEvery = 4
	})
	sqls := workload.SQLs()
	var want []uint64
	for i := 0; i < 6; i++ {
		rep, err := sys.Run(sqls[i])
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		want = append(want, storage.ChecksumData(rep.Result))
	}
	if sys.ReuseStats().Cache.Entries == 0 {
		t.Fatal("nothing cached before crash")
	}

	cfg := sys.cfg
	twin, _, err := Recover(cfg, sys.Catalog(), sys.Durability().Latest(), sys.Durability().WAL())
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if st := twin.ReuseStats().Cache; st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("recovered system inherited cache state: %+v", st)
	}
	for i := 0; i < 6; i++ {
		rep, err := twin.Run(sqls[i])
		if err != nil {
			t.Fatalf("post-recovery query %d: %v", i, err)
		}
		if rep.CacheHit {
			t.Fatalf("post-recovery query %d served from a cache that should be empty", i)
		}
		if got := storage.ChecksumData(rep.Result); got != want[i] {
			t.Fatalf("post-recovery query %d diverged from pre-crash answer", i)
		}
	}
}

// TestReuseInvalidationOnAuditQuarantine: when the audit plane
// quarantines an unrepairable corrupt view, every cached entry is
// dropped — results computed while the view was live may carry its bytes.
func TestReuseInvalidationOnAuditQuarantine(t *testing.T) {
	sys := newReuseSystem(t, VariantMSMiso, nil)
	runPrefix(t, sys, 6)
	if sys.ReuseStats().Cache.Entries == 0 {
		t.Fatal("nothing cached before quarantine")
	}

	victim, set := pickRecomputable(sys)
	if victim == nil {
		t.Fatal("no view materialized")
	}
	rotted := *victim
	rotted.Table = victim.Table.Clone()
	durability.CorruptTable(rotted.Table, 0.5)
	// Break the name↔signature link (keeping the registered name, which
	// is the store's map key) so the repair path cannot recompute the
	// view: the audit must quarantine instead.
	rotted.Sig = "scan(bogus)"
	set.Add(&rotted)

	viols, _, err := sys.AuditViews("", 0, true)
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	quarantined := false
	for _, v := range viols {
		if v.Quarantined {
			quarantined = true
		}
	}
	if !quarantined {
		t.Fatalf("audit did not quarantine: %+v", viols)
	}
	if st := sys.ReuseStats().Cache; st.Entries != 0 || st.Invalidations == 0 {
		t.Fatalf("quarantine did not clear the cache: %+v", st)
	}
}

// TestConcurrentRepeatsHitTheCache: queries run one at a time under s.mu,
// so of eight concurrent submissions of one statement the first to take
// the lock executes and the other seven are answered from the cache it
// filled, at zero cost and with the reuse-off twin's answer.
func TestConcurrentRepeatsHitTheCache(t *testing.T) {
	sql := workload.SQLs()[0]
	twin := newReuseSystem(t, VariantMSMiso, func(c *Config) { c.Reuse = ReuseConfig{} })
	cold, err := twin.Run(sql)
	if err != nil {
		t.Fatal(err)
	}
	want := storage.ChecksumData(cold.Result)

	sys := newReuseSystem(t, VariantMSMiso, nil)
	const n = 8
	reps := make([]*QueryReport, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[i], errs[i] = sys.RunContext(context.Background(), sql)
		}()
	}
	wg.Wait()
	hits := 0
	for i, rep := range reps {
		if errs[i] != nil {
			t.Fatalf("submission %d: %v", i, errs[i])
		}
		if rep.CacheHit {
			hits++
			if rep.Total() != 0 {
				t.Errorf("submission %d: cache hit charged %f seconds, want 0", i, rep.Total())
			}
		}
		if storage.ChecksumData(rep.Result) != want {
			t.Errorf("submission %d: answer diverged from the reuse-off twin's", i)
		}
	}
	if m := sys.Metrics(); m.CacheMisses != 1 || hits != n-1 {
		t.Errorf("%d misses and %d hits, want 1 and %d", m.CacheMisses, hits, n-1)
	}
}

// TestZeroReuseConfigBuildsNoPlane: with Config.Reuse zero the plane is
// never constructed — the structural half of "disabled reuse changes
// nothing"; the behavioural half is the defaults row of
// TestPlaneMatrixMatchesGolden.
func TestZeroReuseConfigBuildsNoPlane(t *testing.T) {
	sys := newReuseSystem(t, VariantMSMiso, func(c *Config) { c.Reuse = ReuseConfig{} })
	if sys.reuse != nil {
		t.Fatal("zero Reuse config built a reuse plane")
	}
}

// TestSubmitBuildsEachStatementOnce: the builder memo reaches the query
// path. Every query of a second pass over the workload runs on the plan the
// first pass built for its text — which is also the plan
// ProvideFutureWorkload built — so a repeat neither parses nor builds.
func TestSubmitBuildsEachStatementOnce(t *testing.T) {
	sys := newReuseSystem(t, VariantMSMiso, nil)
	future := map[string]*logical.Node{}
	for _, e := range sys.future {
		future[e.SQL] = e.Plan
	}
	first := map[string]*logical.Node{}
	for pass := 0; pass < 2; pass++ {
		for i, sql := range workload.SQLs() {
			if _, err := sys.Run(sql); err != nil {
				t.Fatalf("pass %d query %d: %v", pass, i, err)
			}
			e := sys.window.Entries()[len(sys.window.Entries())-1]
			if e.Plan != future[sql] {
				t.Fatalf("pass %d query %d ran on a plan the future workload does not hold", pass, i)
			}
			if pass == 0 {
				first[sql] = e.Plan
			} else if e.Plan != first[sql] {
				t.Fatalf("query %d was built again on the second pass", i)
			}
		}
	}
}

// TestCacheHitAllocs guards the hit path's allocations: with the plan
// built once per text and the prologue's quarantine copying no view set,
// a served cache hit allocates for its prologue, report and booking only.
// The ceilings sit above what a hit allocates here (3 for each of queries
// 0, 5 and 17; 674, 491 and 573 when every hit rebuilt its plan).
func TestCacheHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	sys := newReuseSystem(t, VariantMSMiso, nil)
	sqls := workload.SQLs()
	for i, sql := range sqls {
		if _, err := sys.Run(sql); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	ctx := context.Background()
	for _, c := range []struct {
		query   int
		ceiling float64
	}{{0, 80}, {5, 170}, {17, 250}} {
		sql := sqls[c.query]
		// A reorganization since the query last ran cleared the cache: the
		// first repeat may execute and re-admit the answer.
		for try := 0; ; try++ {
			rep, err := sys.RunContext(ctx, sql)
			if err != nil {
				t.Fatalf("query %d: %v", c.query, err)
			}
			if rep.CacheHit {
				break
			}
			if try == 2 {
				t.Fatalf("query %d: no cache hit in three repeats", c.query)
			}
		}
		allocs := testing.AllocsPerRun(20, func() {
			if rep, err := sys.RunContext(ctx, sql); err != nil || !rep.CacheHit {
				t.Fatalf("query %d: no cache hit (err %v)", c.query, err)
			}
		})
		t.Logf("query %d: a cache hit allocates %.0f times", c.query, allocs)
		if allocs > c.ceiling {
			t.Errorf("query %d: a cache hit allocates %.0f times, ceiling %.0f", c.query, allocs, c.ceiling)
		}
	}
}
