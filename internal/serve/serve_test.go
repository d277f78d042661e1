package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"miso/internal/faults"
	"miso/internal/govern"
	"miso/internal/multistore"
)

// fakeClock drives the breaker's cooldown deterministically.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestBreakerStateMachine walks the breaker through every transition with
// a table of event sequences.
func TestBreakerStateMachine(t *testing.T) {
	type step struct {
		op         string // "fail" | "failProbe" | "success" | "successProbe" | "allow" | "release" | "advance"
		wantState  BreakerState
		wantNormal bool // for "allow"
		wantProbe  bool // for "allow"
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{
			name: "closed to open after threshold consecutive failures",
			steps: []step{
				{op: "fail", wantState: BreakerClosed},
				{op: "fail", wantState: BreakerClosed},
				{op: "fail", wantState: BreakerOpen},
				{op: "allow", wantState: BreakerOpen, wantNormal: false, wantProbe: false},
			},
		},
		{
			name: "success resets the consecutive failure count",
			steps: []step{
				{op: "fail", wantState: BreakerClosed},
				{op: "fail", wantState: BreakerClosed},
				{op: "success", wantState: BreakerClosed},
				{op: "fail", wantState: BreakerClosed},
				{op: "fail", wantState: BreakerClosed},
				{op: "success", wantState: BreakerClosed},
			},
		},
		{
			name: "open to half-open after cooldown, probe success closes",
			steps: []step{
				{op: "fail", wantState: BreakerClosed},
				{op: "fail", wantState: BreakerClosed},
				{op: "fail", wantState: BreakerOpen},
				{op: "allow", wantState: BreakerOpen, wantNormal: false},
				{op: "advance", wantState: BreakerOpen},
				{op: "allow", wantState: BreakerHalfOpen, wantNormal: true, wantProbe: true},
				// Only one probe flies at a time.
				{op: "allow", wantState: BreakerHalfOpen, wantNormal: false},
				{op: "successProbe", wantState: BreakerClosed},
				{op: "allow", wantState: BreakerClosed, wantNormal: true},
			},
		},
		{
			name: "failed probe re-opens and a later probe may retry",
			steps: []step{
				{op: "fail", wantState: BreakerClosed},
				{op: "fail", wantState: BreakerClosed},
				{op: "fail", wantState: BreakerOpen},
				{op: "advance", wantState: BreakerOpen},
				{op: "allow", wantState: BreakerHalfOpen, wantNormal: true, wantProbe: true},
				{op: "failProbe", wantState: BreakerOpen},
				{op: "allow", wantState: BreakerOpen, wantNormal: false},
				{op: "advance", wantState: BreakerOpen},
				{op: "allow", wantState: BreakerHalfOpen, wantNormal: true, wantProbe: true},
			},
		},
		{
			name: "released probe keeps the breaker half-open for the next query",
			steps: []step{
				{op: "fail", wantState: BreakerClosed},
				{op: "fail", wantState: BreakerClosed},
				{op: "fail", wantState: BreakerOpen},
				{op: "advance", wantState: BreakerOpen},
				{op: "allow", wantState: BreakerHalfOpen, wantNormal: true, wantProbe: true},
				{op: "release", wantState: BreakerHalfOpen},
				{op: "allow", wantState: BreakerHalfOpen, wantNormal: true, wantProbe: true},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := &fakeClock{now: time.Unix(1000, 0)}
			b := newBreaker(clock.Now)
			for i, st := range tc.steps {
				switch st.op {
				case "fail":
					b.recordFailure(false)
				case "failProbe":
					b.recordFailure(true)
				case "success":
					b.recordSuccess(false)
				case "successProbe":
					b.recordSuccess(true)
				case "release":
					b.releaseProbe(true)
				case "advance":
					clock.Advance(DefaultBreakerCooldown)
				case "allow":
					normal, probe := b.allow()
					if normal != st.wantNormal || probe != st.wantProbe {
						t.Fatalf("step %d: allow() = (%v, %v), want (%v, %v)",
							i, normal, probe, st.wantNormal, st.wantProbe)
					}
				default:
					t.Fatalf("step %d: unknown op %q", i, st.op)
				}
				if got, _, _ := b.snapshot(); got != st.wantState {
					t.Fatalf("step %d (%s): state %s, want %s", i, st.op, got, st.wantState)
				}
			}
		})
	}
}

func TestBreakerCountsTripsAndProbes(t *testing.T) {
	clock := &fakeClock{now: time.Unix(1000, 0)}
	b := newBreaker(clock.Now)
	trip(b) // trip 1
	clock.Advance(DefaultBreakerCooldown)
	b.allow()             // probe 1
	b.recordFailure(true) // trip 2
	clock.Advance(DefaultBreakerCooldown)
	b.allow() // probe 2
	b.recordSuccess(true)
	if _, trips, probes := b.snapshot(); trips != 2 || probes != 2 {
		t.Fatalf("trips=%d probes=%d, want 2 and 2", trips, probes)
	}
}

// stubBackend lets the serving-plane tests control execution without a
// real multistore system.
type stubBackend struct {
	mu       sync.Mutex
	started  chan string   // receives the SQL when RunContext begins
	block    chan struct{} // RunContext waits for this (or ctx) when set
	run      func(sql string) (*multistore.QueryReport, error)
	degraded int
	reorgs   int
}

func (b *stubBackend) RunContext(ctx context.Context, sql string) (*multistore.QueryReport, error) {
	if b.started != nil {
		b.started <- sql
	}
	if b.block != nil {
		select {
		case <-b.block:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	if b.run != nil {
		return b.run(sql)
	}
	return &multistore.QueryReport{SQL: sql}, nil
}

func (b *stubBackend) RunDegraded(ctx context.Context, sql string) (*multistore.QueryReport, error) {
	b.mu.Lock()
	b.degraded++
	b.mu.Unlock()
	return &multistore.QueryReport{SQL: sql, HVOnly: true, Degraded: true}, nil
}

func (b *stubBackend) Reorganize() error {
	b.mu.Lock()
	b.reorgs++
	b.mu.Unlock()
	return nil
}

// TestAdmissionShedding fills the single worker and the one queue slot,
// then checks that the next submission is shed without touching the
// backend.
func TestAdmissionShedding(t *testing.T) {
	backend := &stubBackend{started: make(chan string, 4), block: make(chan struct{})}
	srv := NewServer(Config{Workers: 1, QueueDepth: 1}, backend)
	defer srv.Close()

	var wg sync.WaitGroup
	do := func() {
		defer wg.Done()
		if _, err := srv.Do(context.Background(), "q"); err != nil {
			t.Errorf("admitted query failed: %v", err)
		}
	}
	wg.Add(1)
	go do()
	<-backend.started // the worker is now busy

	wg.Add(1)
	go do()
	// The second submission lands in the queue slot; admission happens
	// under the server mutex, so once Submitted reaches 2 with no sheds
	// the slot is taken.
	for {
		m := srv.Metrics()
		if m.Submitted == 2 && m.Sheds == 0 {
			break
		}
		time.Sleep(time.Millisecond)
	}

	if _, err := srv.Do(context.Background(), "q3"); !errors.Is(err, ErrShed) {
		t.Fatalf("third submission: err = %v, want ErrShed", err)
	}

	close(backend.block)
	wg.Wait()
	m := srv.Metrics()
	if m.Submitted != 3 || m.Completed != 2 || m.Sheds != 1 {
		t.Fatalf("metrics = %+v, want 3 submitted / 2 completed / 1 shed", m)
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestQueryTimeout checks the per-query deadline abandons a stuck query
// and books it as a timeout.
func TestQueryTimeout(t *testing.T) {
	backend := &stubBackend{block: make(chan struct{})}
	defer close(backend.block)
	srv := NewServer(Config{Workers: 1, QueryTimeout: 20 * time.Millisecond}, backend)
	defer srv.Close()

	_, err := srv.Do(context.Background(), "slow")
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
	m := srv.Metrics()
	if m.Timeouts != 1 || m.Completed != 0 {
		t.Fatalf("metrics = %+v, want exactly one timeout", m)
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestBreakerRoutesToDegradedPath drives the server's breaker open with
// DW-exhaustion fallbacks and checks queries are then served degraded.
func TestBreakerRoutesToDegradedPath(t *testing.T) {
	cause := faults.Exhausted(&faults.Fault{Site: faults.SiteDWQuery, Op: "query", Attempt: 6})
	backend := &stubBackend{
		run: func(sql string) (*multistore.QueryReport, error) {
			return &multistore.QueryReport{SQL: sql, FellBackToHV: true, FallbackCause: cause, HVOnly: true}, nil
		},
	}
	srv := NewServer(Config{Workers: 1}, backend)
	defer srv.Close()

	for i := 0; i < DefaultBreakerThreshold; i++ {
		if _, err := srv.Do(context.Background(), "q"); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	if st := srv.BreakerState(); st != BreakerOpen {
		t.Fatalf("breaker %s after threshold fallbacks, want open", st)
	}
	rep, err := srv.Do(context.Background(), "q")
	if err != nil {
		t.Fatalf("degraded query: %v", err)
	}
	if !rep.Degraded {
		t.Fatal("query served while open is not marked degraded")
	}
	m := srv.Metrics()
	if m.Degraded != 1 || m.BreakerTrips != 1 {
		t.Fatalf("metrics = %+v, want 1 degraded / 1 trip", m)
	}
	if backend.degraded != 1 {
		t.Fatalf("backend saw %d degraded runs, want 1", backend.degraded)
	}
}

// TestReorganizeDrainsAndCancelsStragglers checks the drain barrier: a
// stuck in-flight query is canceled once DrainTimeout passes, the
// reorganization runs with the plane quiesced, and service resumes.
func TestReorganizeDrainsAndCancelsStragglers(t *testing.T) {
	backend := &stubBackend{started: make(chan string, 1), block: make(chan struct{})}
	defer close(backend.block)
	srv := NewServer(Config{Workers: 2, DrainTimeout: 30 * time.Millisecond}, backend)
	defer srv.Close()

	errc := make(chan error, 1)
	go func() {
		_, err := srv.Do(context.Background(), "stuck")
		errc <- err
	}()
	<-backend.started

	if err := srv.Reorganize(); err != nil {
		t.Fatalf("reorganize: %v", err)
	}
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("straggler err = %v, want context.Canceled", err)
	}
	if backend.reorgs != 1 {
		t.Fatalf("backend saw %d reorgs, want 1", backend.reorgs)
	}
	m := srv.Metrics()
	if m.Reorgs != 1 || m.ReorgCancels != 1 || m.Canceled != 1 {
		t.Fatalf("metrics = %+v, want 1 reorg / 1 reorg-cancel / 1 canceled", m)
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}

	// The plane serves again after the barrier drops.
	backend.started = nil
	backend.block = nil
	if _, err := srv.Do(context.Background(), "after"); err != nil {
		t.Fatalf("query after reorg: %v", err)
	}
}

// TestMetricsGovernanceCounters checks the serving plane books the
// governance outcomes — memory-budget aborts, contained worker panics —
// in their own counters, keeps counting completions, and still satisfies
// the accounting invariant.
func TestMetricsGovernanceCounters(t *testing.T) {
	backend := &stubBackend{run: func(sql string) (*multistore.QueryReport, error) {
		switch sql {
		case "mem":
			return nil, fmt.Errorf("query aborted: %w", govern.ErrMemLimit)
		case "panic":
			panic("injected worker panic")
		}
		return &multistore.QueryReport{SQL: sql}, nil
	}}
	srv := NewServer(Config{Workers: 1}, backend)
	defer srv.Close()

	if _, err := srv.Do(context.Background(), "mem"); !errors.Is(err, govern.ErrMemLimit) {
		t.Fatalf("mem query: err = %v, want ErrMemLimit", err)
	}
	if _, err := srv.Do(context.Background(), "panic"); !errors.Is(err, govern.ErrInternal) {
		t.Fatalf("panic query: err = %v, want ErrInternal", err)
	}
	if _, err := srv.Do(context.Background(), "ok"); err != nil {
		t.Fatalf("ok query after a contained panic: %v", err)
	}

	m := srv.Metrics()
	if m.Aborted != 1 || m.PanicsContained != 1 || m.Completed != 1 {
		t.Fatalf("metrics = %+v, want 1 aborted / 1 panic contained / 1 completed", m)
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
}

// TestCloseRejectsNewWork checks post-Close submissions fail typed and
// Close is idempotent.
func TestCloseRejectsNewWork(t *testing.T) {
	srv := NewServer(Config{Workers: 1}, &stubBackend{})
	srv.Close()
	srv.Close()
	if _, err := srv.Do(context.Background(), "q"); !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}
