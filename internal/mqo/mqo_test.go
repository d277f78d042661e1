package mqo

import (
	"fmt"
	"sync"
	"testing"

	"miso/internal/logical"
	"miso/internal/storage"
)

// mapSource is a test VersionSource over a fixed version table.
type mapSource map[string][2]int

func (m mapSource) LogVersion(name string) (gen, lines int, ok bool) {
	v, ok := m[name]
	return v[0], v[1], ok
}

// testPlan builds Limit(Distinct(Extract(Scan(log)))) by hand — enough
// operator variety to exercise id folding without a catalog.
func testPlan(log string) *logical.Node {
	scan := logical.NewNode(logical.Node{Kind: logical.KindScan, LogName: log}, nil)
	ext := logical.NewNode(logical.Node{
		Kind:     logical.KindExtract,
		Children: []*logical.Node{scan},
		Fields: []logical.ExtractField{
			{LogField: "user", OutName: "user", Type: storage.KindString},
			{LogField: "bytes", OutName: "bytes", Type: storage.KindInt},
		},
	}, nil)
	dist := logical.NewNode(logical.Node{Kind: logical.KindDistinct, Children: []*logical.Node{ext}}, nil)
	return logical.NewNode(logical.Node{Kind: logical.KindLimit, LimitN: 10, Children: []*logical.Node{dist}}, nil)
}

func TestHashPlanDeterministicAndVersionAware(t *testing.T) {
	src := mapSource{"logs_a": {0, 100}, "logs_b": {0, 50}}
	fp1, ok := HashPlan(testPlan("logs_a"), src)
	if !ok || fp1 == 0 {
		t.Fatalf("HashPlan = (%v, %v), want fingerprint", fp1, ok)
	}
	fp2, ok := HashPlan(testPlan("logs_a"), src)
	if !ok || fp2 != fp1 {
		t.Fatalf("identical plans hashed to %v and %v", fp1, fp2)
	}
	if fpB, _ := HashPlan(testPlan("logs_b"), src); fpB == fp1 {
		t.Fatal("different scans collided")
	}
	// Appends change the fingerprint.
	if fp, _ := HashPlan(testPlan("logs_a"), mapSource{"logs_a": {0, 101}}); fp == fp1 {
		t.Fatal("line-count change did not change the fingerprint")
	}
	// The generation folds in too, though the system always reports 0.
	if fp, _ := HashPlan(testPlan("logs_a"), mapSource{"logs_a": {1, 100}}); fp == fp1 {
		t.Fatal("generation bump did not change the fingerprint")
	}
}

func TestHashPlanRejectsViewsAndUnknownLogs(t *testing.T) {
	src := mapSource{"logs_a": {0, 100}}
	if _, ok := HashPlan(testPlan("logs_zzz"), src); ok {
		t.Fatal("unknown log must not fingerprint")
	}
	vs := logical.NewViewScan("v1", nil)
	root := logical.NewNode(logical.Node{Kind: logical.KindDistinct, Children: []*logical.Node{vs}}, nil)
	if _, ok := HashPlan(root, src); ok {
		t.Fatal("a plan reading a view must not fingerprint")
	}
	if _, ok := HashPlan(nil, src); ok {
		t.Fatal("nil plan must not fingerprint")
	}
}

// TestPlanHashZeroAlloc is the fingerprint counterpart of the exec
// package's TestBatchHashZeroAlloc: hashing a freshly built plan must not
// allocate — it runs on the hot serving path for every query and every cut
// probe — and needs no signature computed first.
func TestPlanHashZeroAlloc(t *testing.T) {
	plan := testPlan("logs_a")
	var src VersionSource = mapSource{"logs_a": {3, 12345}}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := HashPlan(plan, src); !ok {
			t.Fatal("hash failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("HashPlan allocated %.1f times per run, want 0", allocs)
	}
}

func BenchmarkPlanHash(b *testing.B) {
	plan := testPlan("logs_a")
	var src VersionSource = mapSource{"logs_a": {3, 12345}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := HashPlan(plan, src); !ok {
			b.Fatal("hash failed")
		}
	}
}

func tbl(name string, n int) *storage.Table {
	sch, err := storage.NewSchema(storage.Column{Name: "v", Type: storage.KindInt})
	if err != nil {
		panic(err)
	}
	t := storage.NewTable(name, sch)
	for i := 0; i < n; i++ {
		if err := t.Append(storage.Row{storage.IntValue(int64(i))}); err != nil {
			panic(err)
		}
	}
	return t
}

func TestCacheHitMissAndDigestVerify(t *testing.T) {
	c := NewCache(1 << 20)
	if _, ok := c.Get(1); ok {
		t.Fatal("hit on empty cache")
	}
	want := tbl("r", 10)
	c.Put(1, want)
	got, ok := c.Get(1)
	if !ok || got != want {
		t.Fatalf("Get = (%v, %v), want the cached table", got, ok)
	}
	// Mutating the cached table behind the cache's back must be caught by
	// digest verification: the entry is dropped, never served.
	want.Rows[0][0] = storage.IntValue(999)
	if _, ok := c.Get(1); ok {
		t.Fatal("served a corrupted entry")
	}
	st := c.Stats()
	if st.Corrupt != 1 || st.Entries != 0 {
		t.Fatalf("stats after corruption: %+v", st)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	one := tbl("a", 100)
	per := tableBytes(one)
	c := NewCache(3 * per)
	c.Put(1, one)
	c.Put(2, tbl("b", 100))
	c.Put(3, tbl("c", 100))
	c.Get(1) // refresh 1; 2 becomes LRU
	c.Put(4, tbl("d", 100))
	if _, ok := c.Get(2); ok {
		t.Fatal("LRU entry 2 survived eviction")
	}
	for _, fp := range []Fingerprint{1, 3, 4} {
		if _, ok := c.Get(fp); !ok {
			t.Fatalf("entry %d evicted, want resident", fp)
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
	// An entry larger than the whole cache is rejected outright.
	c.Put(5, tbl("huge", 10000))
	if _, ok := c.Get(5); ok {
		t.Fatal("oversized entry admitted")
	}
}

func TestCacheClear(t *testing.T) {
	c := NewCache(1 << 20)
	c.Put(1, tbl("a", 5))
	c.Put(2, tbl("b", 5))
	c.Clear()
	st := c.Stats()
	if st.Entries != 0 || st.Bytes != 0 || st.Invalidations != 2 {
		t.Fatalf("after Clear: %+v", st)
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("entry survived Clear")
	}
}

func TestNilCacheIsSafe(t *testing.T) {
	var c *Cache
	c.Put(1, tbl("a", 1))
	if _, ok := c.Get(1); ok {
		t.Fatal("nil cache hit")
	}
	c.Clear()
	if c.Contains(1) {
		t.Fatal("nil cache contains")
	}
	_ = c.Stats()
	if NewCache(0) != nil {
		t.Fatal("zero-cap cache must be nil")
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	c := NewCache(1 << 20)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				fp := Fingerprint(i % 10)
				if i%3 == 0 {
					c.Put(fp, tbl(fmt.Sprintf("t%d", fp), 5))
				} else {
					c.Get(fp)
				}
			}
		}(g)
	}
	wg.Wait()
}
