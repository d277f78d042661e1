package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"miso/internal/govern"
	"miso/internal/multistore"
)

// fakeClock drives the quota buckets' refill deterministically.
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

// stubBackend lets the serving-plane tests control execution without a
// real multistore system.
type stubBackend struct {
	mu      sync.Mutex
	started chan string   // receives the SQL when RunContext begins
	block   chan struct{} // RunContext waits for this (or ctx) when set
	run     func(sql string) (*multistore.QueryReport, error)
	reorgs  int
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
