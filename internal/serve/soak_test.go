package serve_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"miso/internal/data"
	"miso/internal/faults"
	"miso/internal/multistore"
	"miso/internal/serve"
	"miso/internal/workload"
)

// newSoakSystem builds a small MS-MISO system; set, when non-nil, edits
// its configuration first.
func newSoakSystem(t *testing.T, set func(*multistore.Config)) *multistore.System {
	t.Helper()
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	cfg := multistore.DefaultConfig(multistore.VariantMSMiso)
	cfg.SetBudgets(cat, 2.0, 10<<30)
	if set != nil {
		set(&cfg)
	}
	sys := multistore.New(cfg, cat)
	if err := sys.ProvideFutureWorkload(workload.SQLs()); err != nil {
		t.Fatalf("future workload: %v", err)
	}
	return sys
}

// TestServeSoak is the acceptance soak: eight concurrent sessions each
// replay the full 32-query workload through one server over a faulty
// (5%) MS-MISO system while a background goroutine forces online
// reorganizations. The run must terminate (no deadlock), account every
// submission, keep the serving metrics consistent with the system
// metrics, and leave the catalog invariants intact.
func TestServeSoak(t *testing.T) {
	const sessions = 8
	sys := newSoakSystem(t, func(c *multistore.Config) {
		c.Faults = faults.Uniform(0.05)
		c.FaultSeed = 42
	})
	srv := serve.NewServer(serve.Config{
		Workers:      4,
		QueueDepth:   sessions,
		QueryTimeout: 30 * time.Second, // generous: wall time per query is milliseconds
		DrainTimeout: 10 * time.Second,
	}, sys)

	sqls := workload.SQLs()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var sheds, failures int
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, sql := range sqls {
				_, err := srv.Do(context.Background(), sql)
				switch {
				case err == nil:
				case errors.Is(err, serve.ErrShed):
					mu.Lock()
					sheds++
					mu.Unlock()
				default:
					mu.Lock()
					failures++
					mu.Unlock()
					t.Errorf("query %d: %v", i, err)
				}
			}
		}()
	}

	// Exercise the drain barrier concurrently with live traffic.
	reorgDone := make(chan struct{})
	go func() {
		defer close(reorgDone)
		for i := 0; i < 3; i++ {
			time.Sleep(50 * time.Millisecond)
			if err := srv.Reorganize(); err != nil {
				t.Errorf("online reorg %d: %v", i, err)
			}
		}
	}()

	wg.Wait()
	<-reorgDone
	srv.Close()

	m := srv.Metrics()
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	if m.Submitted != sessions*len(sqls) {
		t.Fatalf("submitted %d, want %d", m.Submitted, sessions*len(sqls))
	}
	if m.Sheds != sheds {
		t.Fatalf("server counted %d sheds, sessions saw %d", m.Sheds, sheds)
	}
	if m.Reorgs != 3 {
		t.Fatalf("reorgs = %d, want 3", m.Reorgs)
	}
	if failures != 0 {
		t.Fatalf("%d queries failed outright", failures)
	}

	sm := sys.Metrics()
	if sm.Queries != m.Completed {
		t.Fatalf("system completed %d queries, server counted %d", sm.Queries, m.Completed)
	}
	if sm.Canceled != m.Timeouts+m.Canceled {
		t.Fatalf("system canceled %d, server booked %d timeouts + %d cancels",
			sm.Canceled, m.Timeouts, m.Canceled)
	}
	if sm.Degraded != 0 {
		t.Fatalf("server sent %d queries down the forced HV-only route, want none", sm.Degraded)
	}
	if sm.Recovery <= 0 {
		t.Error("expected nonzero recovery time at a 5% fault rate")
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestServeMatchesSequentialRun checks the serving layer is a strict
// no-op around the system, faults included: one session, no deadline —
// the system's metrics must be identical to calling System.Run in a loop,
// both on a healthy system and under a total DW outage, where every
// multistore plan falls back to HV inside the system.
func TestServeMatchesSequentialRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*multistore.Config)
	}{
		{name: "clean"},
		{name: "DW outage", set: func(c *multistore.Config) {
			c.Faults = faults.Profile{}.With(faults.SiteDWQuery, 1.0)
			c.FaultSeed = 7
			c.Retry = faults.RetryPolicy{MaxAttempts: 2, BaseBackoff: 1, BackoffFactor: 2, MaxBackoff: 4}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sqls := workload.SQLs()

			seq := newSoakSystem(t, tc.set)
			for i, sql := range sqls {
				if _, err := seq.Run(sql); err != nil {
					t.Fatalf("sequential query %d: %v", i, err)
				}
			}

			served := newSoakSystem(t, tc.set)
			srv := serve.NewServer(serve.Config{Workers: 1}, served)
			for i, sql := range sqls {
				if _, err := srv.Do(context.Background(), sql); err != nil {
					t.Fatalf("served query %d: %v", i, err)
				}
			}
			srv.Close()

			if sm, qm := seq.Metrics(), served.Metrics(); sm != qm {
				t.Fatalf("served metrics diverge from sequential run:\nseq:    %+v\nserved: %+v", sm, qm)
			}
			if err := srv.Metrics().Check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
