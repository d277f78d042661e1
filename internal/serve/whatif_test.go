package serve_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"miso/internal/logical"
	"miso/internal/optimizer"
	"miso/internal/serve"
	"miso/internal/workload"
)

// TestConcurrentWhatIfCostingDuringSoak hammers the optimizer's what-if
// interface from 16 goroutines while a zero-fault serving soak (queries
// plus online reorganizations) runs against the same system. Under the
// race detector this regresses the costing path's concurrency contract:
// optimizer.Cost is a pure read of the stores, the estimator, and the
// design, so concurrent costing must neither race with live execution
// and reorganization nor perturb them.
func TestConcurrentWhatIfCostingDuringSoak(t *testing.T) {
	const costers = 16
	sys := newSoakSystem(t, nil)
	srv := serve.NewServer(serve.Config{
		Workers:      4,
		QueueDepth:   costers,
		DrainTimeout: 10 * time.Second,
	}, sys)

	// Private plans for the cost hammer: the serving plane builds its own,
	// so the only state shared with live traffic is the stores, the
	// estimator, and the live design.
	builder := logical.NewBuilder(sys.Catalog())
	var plans []*logical.Node
	for _, q := range workload.Evolving()[:8] {
		plan, err := builder.BuildSQL(q.SQL)
		if err != nil {
			t.Fatalf("build %s: %v", q.Name, err)
		}
		plans = append(plans, plan)
	}

	stop := make(chan struct{})
	var costWG sync.WaitGroup
	for g := 0; g < costers; g++ {
		costWG.Add(1)
		go func(g int) {
			defer costWG.Done()
			opt := sys.Optimizer()
			live := sys.Design()
			empty := optimizer.EmptyDesign()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				plan := plans[(g+i)%len(plans)]
				d := live
				if i%2 == 1 {
					d = empty
				}
				if c := opt.PlanSpace(plan).Cost(d); c < 0 {
					t.Errorf("coster %d: negative cost %f", g, c)
					return
				}
			}
		}(g)
	}

	// The soak: two sessions replay the workload's first 12 queries
	// (enough to cover both reorganizations) while the drain barrier
	// cycles, swapping both stores' designs under the costers' feet.
	sqls := workload.SQLs()[:12]
	var wg sync.WaitGroup
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, sql := range sqls {
				if _, err := srv.Do(context.Background(), sql); err != nil &&
					!errors.Is(err, serve.ErrShed) {
					t.Errorf("query %d: %v", i, err)
				}
			}
		}()
	}
	reorgDone := make(chan struct{})
	go func() {
		defer close(reorgDone)
		for i := 0; i < 2; i++ {
			time.Sleep(20 * time.Millisecond)
			if err := srv.Reorganize(); err != nil {
				t.Errorf("online reorg %d: %v", i, err)
			}
		}
	}()

	wg.Wait()
	<-reorgDone
	close(stop)
	costWG.Wait()
	srv.Close()

	if err := srv.Metrics().Check(); err != nil {
		t.Fatal(err)
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
