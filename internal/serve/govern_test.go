package serve_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"miso/internal/data"
	"miso/internal/faults"
	"miso/internal/govern"
	"miso/internal/multistore"
	"miso/internal/serve"
	"miso/internal/storage"
	"miso/internal/workload"
)

func newGovernSystem(t *testing.T, v multistore.Variant, prof faults.Profile) *multistore.System {
	t.Helper()
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	cfg := multistore.DefaultConfig(v)
	cfg.SetBudgets(cat, 2.0, 10<<30)
	cfg.Faults = prof
	cfg.FaultSeed = 42
	sys := multistore.New(cfg, cat)
	if err := sys.ProvideFutureWorkload(workload.SQLs()); err != nil {
		t.Fatalf("future workload: %v", err)
	}
	return sys
}

// TestCancelFreesWorkersWithinBound is the cancellation regression: under
// a system where every morsel stalls (SiteSlowMorsel at rate 1), queries
// run long past the server's deadline, so the worker pool lives on
// cooperative cancellation. Every Do must return, every measured
// cancel-to-idle latency must stay under a generous bound, and a final
// uncanceled query must complete — proof that abandoned queries released
// their workers rather than wedging the pool.
func TestCancelFreesWorkersWithinBound(t *testing.T) {
	sys := newGovernSystem(t, multistore.VariantMSMiso,
		faults.Profile{}.With(faults.SiteSlowMorsel, 1))
	srv := serve.NewServer(serve.Config{Workers: 2, QueueDepth: 8}, sys)
	defer srv.Close()

	// Deadlines ride the caller contexts, not the server config, so the
	// final worker-availability probe below runs without one.
	sqls := workload.SQLs()
	var wg sync.WaitGroup
	for s := 0; s < 3; s++ {
		wg.Add(1)
		go func(session int) {
			defer wg.Done()
			for i := 0; i < 2; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 15*time.Millisecond)
				_, err := srv.Do(ctx, sqls[(session*2+i)%len(sqls)])
				cancel()
				switch {
				case err == nil:
				case errors.Is(err, context.DeadlineExceeded):
				case errors.Is(err, context.Canceled):
				default:
					t.Errorf("session %d query %d: unexpected outcome %v", session, i, err)
				}
			}
		}(s)
	}
	wg.Wait()

	m := srv.Metrics()
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	if m.Timeouts == 0 {
		t.Fatalf("metrics = %+v, want at least one deadline-exceeded query", m)
	}
	const bound = 3 * time.Second // generous: claims poll every morsel, stalls are <=2ms
	for _, lat := range srv.CancelLatencies() {
		if lat > bound {
			t.Fatalf("cancel-to-idle latency %s exceeds %s bound", lat, bound)
		}
	}

	// Both workers must be free again: an uncanceled query completes.
	if _, err := srv.Do(context.Background(), sqls[0]); err != nil {
		t.Fatalf("query after cancellation storm: %v (workers not released?)", err)
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWorkerPanicIsolation is the panic-containment regression: with
// worker panics injected into the exec plane, a panicking query must fail
// alone — wrapped in govern.ErrInternal, never terminating the process —
// while concurrent queries keep returning results byte-identical to a
// fault-free baseline. HV-ONLY retains nothing between queries, so each
// query's fault-free result is the ground truth under any interleaving.
func TestWorkerPanicIsolation(t *testing.T) {
	sqls := workload.SQLs()
	base := newGovernSystem(t, multistore.VariantHVOnly, faults.Profile{})
	baseline := make(map[string]uint64, len(sqls))
	for i, sql := range sqls {
		rep, err := base.Run(sql)
		if err != nil {
			t.Fatalf("baseline query %d: %v", i, err)
		}
		baseline[sql] = storage.ChecksumTable(rep.Result)
	}

	sys := newGovernSystem(t, multistore.VariantHVOnly,
		faults.Profile{}.With(faults.SiteExecPanic, 0.01))
	srv := serve.NewServer(serve.Config{Workers: 4, QueueDepth: 32}, sys)
	defer srv.Close()

	var wg sync.WaitGroup
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func(session int) {
			defer wg.Done()
			for i := session; i < len(sqls); i += 4 {
				sql := sqls[i]
				rep, err := srv.Do(context.Background(), sql)
				switch {
				case err == nil:
					if got := storage.ChecksumTable(rep.Result); got != baseline[sql] {
						t.Errorf("query %d survived the panic storm but diverged: %016x != %016x",
							i, got, baseline[sql])
					}
				case errors.Is(err, govern.ErrInternal):
					// Contained panic: this query alone failed.
				default:
					t.Errorf("query %d: unexpected outcome %v", i, err)
				}
			}
		}(s)
	}
	wg.Wait()

	m := srv.Metrics()
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	if m.PanicsContained == 0 {
		t.Fatalf("metrics = %+v, want at least one contained panic at a 1%% morsel panic rate", m)
	}
	if m.PanicsContained+m.Completed != m.Submitted {
		t.Fatalf("metrics = %+v, every query must either complete or fail by contained panic", m)
	}
}
