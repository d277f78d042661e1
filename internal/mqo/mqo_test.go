package mqo

import (
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

// TestNilCacheIsSafe keeps the name of the deleted result cache's nil test;
// what it checks now is the fingerprint's nil handling: a nil plan or a nil
// version source yields no fingerprint rather than a panic or a zero key.
func TestNilCacheIsSafe(t *testing.T) {
	src := mapSource{"logs_a": {0, 100}}
	if fp, ok := HashPlan(nil, src); ok || fp != 0 {
		t.Fatalf("HashPlan(nil, src) = (%v, %v), want (0, false)", fp, ok)
	}
	if fp, ok := HashPlan(testPlan("logs_a"), nil); ok || fp != 0 {
		t.Fatalf("HashPlan(plan, nil) = (%v, %v), want (0, false)", fp, ok)
	}
}

// TestCacheConcurrentAccess keeps the name of the deleted result cache's
// concurrency test; what it checks now is that HashPlan writes nothing:
// goroutines fingerprinting one shared plan agree with the sequential
// answer, and under -race report no data race.
func TestCacheConcurrentAccess(t *testing.T) {
	plan := testPlan("logs_a")
	src := mapSource{"logs_a": {0, 100}}
	want, ok := HashPlan(plan, src)
	if !ok {
		t.Fatal("hash failed")
	}
	var wg sync.WaitGroup
	errs := make(chan Fingerprint, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if fp, ok := HashPlan(plan, src); !ok || fp != want {
					errs <- fp
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for fp := range errs {
		t.Fatalf("concurrent HashPlan = %v, want %v", fp, want)
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
