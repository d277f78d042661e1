package multistore_test

import (
	"context"
	"sync"
	"testing"

	"miso/internal/data"
	"miso/internal/multistore"
	"miso/internal/serve"
	"miso/internal/storage"
	"miso/internal/workload"
)

// TestServedPlanCacheAnswersTheOracle is served_cold at small scale: two
// clients draw their Zipf streams through a serve.Server over one warm
// MS-MISO system, reorganizing through the server every 50 answers, with
// the plan-cache oracle armed. Every answer must carry the checksum a fresh
// HV-ONLY system computes for the query. Under -race it checks that the
// cache is touched only under its own lock, by read phases and commits.
func TestServedPlanCacheAnswersTheOracle(t *testing.T) {
	sqls := workload.SQLs()
	newSystem := func(v multistore.Variant) *multistore.System {
		cat, err := data.Generate(data.SmallConfig())
		if err != nil {
			t.Fatal(err)
		}
		cfg := multistore.DefaultConfig(v)
		cfg.SetBudgets(cat, 2.0, 10<<30)
		cfg.ReorgEvery = 0
		return multistore.New(cfg, cat)
	}
	oracle := make([]uint64, len(sqls))
	warm := newSystem(multistore.VariantMSMiso)
	hvOnly := newSystem(multistore.VariantHVOnly)
	for i, sql := range sqls {
		rep, err := hvOnly.Run(sql)
		if err != nil {
			t.Fatalf("oracle query %d: %v", i, err)
		}
		oracle[i] = storage.ChecksumData(rep.Result)
		if _, err := warm.Run(sql); err != nil {
			t.Fatalf("warm-up query %d: %v", i, err)
		}
	}

	hits := multistore.ArmPlanOracle(t)
	srv := serve.NewServer(serve.Config{Workers: 2, QueueDepth: 8}, warm)
	defer srv.Close()
	perClient := 150
	if testing.Short() {
		perClient = 50
	}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		served int
	)
	for c := range 2 {
		next := multistore.ServedDraw(c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range perClient {
				qi := next()
				rep, err := srv.Do(context.Background(), sqls[qi])
				if err != nil {
					t.Errorf("client %d, query %d: %v", c, qi, err)
					return
				}
				if got := storage.ChecksumData(rep.Result); got != oracle[qi] {
					t.Errorf("client %d, query %d: checksum %016x, the HV-ONLY oracle's %016x", c, qi, got, oracle[qi])
				}
				mu.Lock()
				served++
				reorg := served%50 == 0
				mu.Unlock()
				if reorg {
					if err := srv.Reorganize(); err != nil {
						t.Errorf("reorganize: %v", err)
					}
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("%d plan-cache hits in %d served queries", hits.Load(), 2*perClient)
	if hits.Load() == 0 {
		t.Error("no plan-cache hit: the oracle checked nothing")
	}
	if err := warm.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
