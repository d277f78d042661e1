package multistore_test

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"miso/internal/data"
	"miso/internal/faults"
	"miso/internal/multistore"
	"miso/internal/views"
	"miso/internal/workload"
)

// TestViewsReadableOutsideTheLock walks both stores' views without
// System.mu, reading each view's recency and size, while an HV-OP system
// runs the 32 queries with SiteViewRot firing on about half of them. A
// recency bump (Set.Touch) and a rot each install a new view through its
// set, so under -race the walk races with nothing.
func TestViewsReadableOutsideTheLock(t *testing.T) {
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	cfg := multistore.DefaultConfig(multistore.VariantHVOp)
	cfg.SetBudgets(cat, 2.0, 10<<30)
	cfg.Faults = faults.Profile{}.With(faults.SiteViewRot, 0.5)
	sys := multistore.New(cfg, cat)

	var stop atomic.Bool
	var wg sync.WaitGroup
	walks := 0
	wg.Add(1)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			for _, set := range []*views.Set{sys.HV().Views, sys.DW().Views} {
				for _, v := range set.All() {
					if v.LastUsedSeq < v.CreatedSeq || v.SizeBytes() < 0 {
						t.Errorf("%s: used at %d, created at %d, %d bytes", v.Name, v.LastUsedSeq, v.CreatedSeq, v.SizeBytes())
						return
					}
				}
			}
			walks++
			runtime.Gosched()
		}
	}()
	for i, sql := range workload.SQLs() {
		if _, err := sys.Run(sql); err != nil {
			t.Errorf("query %d: %v", i, err)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	rots := len(sys.RotLog())
	if rots == 0 {
		t.Fatal("no view rotted: the walk raced against recency bumps only")
	}
	t.Logf("%d walks beside 32 queries and %d rots", walks, rots)
}
