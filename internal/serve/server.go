// Package serve is the concurrent query-serving frontend over the
// multistore system. It adds the operational plane a shared deployment
// needs on top of multistore.System's serialized execution core: a
// bounded worker pool fed by an admission queue that sheds load when
// full, per-query deadlines that abandon work mid-plan through
// context.Context, and online reorganization that quiesces in-flight
// queries behind a drain barrier before mutating the physical design.
// Every admitted query goes to the backend's RunContext; a failing DW is
// the backend's to handle (multistore.System falls back to HV).
//
// Queries still execute one at a time inside the backend (the paper's
// single-stream model); concurrency here is about admission and deadline
// enforcement, not parallel plan execution.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"miso/internal/govern"
	"miso/internal/multistore"
)

// Typed errors callers match with errors.Is.
var (
	// ErrShed marks a query rejected at admission because the queue was
	// full: no work was started and nothing was charged.
	ErrShed = errors.New("serve: admission queue full, query shed")
	// ErrClosed marks a submission to a server that has been closed.
	ErrClosed = errors.New("serve: server closed")
)

// Backend is the execution engine the server drives. *multistore.System
// implements it; tests substitute stubs to exercise the serving plane in
// isolation.
type Backend interface {
	// RunContext executes one query.
	RunContext(ctx context.Context, sql string) (*multistore.QueryReport, error)
	// Reorganize runs one reorganization phase. The server guarantees no
	// query is in flight when it is called.
	Reorganize() error
}

// Config tunes the serving frontend. The zero value is usable: 4
// workers, a queue twice the worker count, no per-query deadline and a 30s
// drain timeout.
type Config struct {
	// Workers is the number of concurrent serving workers: how many
	// queries run at once. It is independent of the data-path parallelism
	// inside each query, which the backend system sets via
	// multistore.Config.ExecWorkers (the exec morsel engine).
	Workers int
	// QueueDepth bounds the admission queue; submissions beyond
	// Workers+QueueDepth in flight are shed with ErrShed.
	QueueDepth int
	// QueryTimeout is the per-query deadline applied at admission; zero
	// disables it. The deadline covers queue wait plus execution.
	QueryTimeout time.Duration
	// DrainTimeout bounds how long Reorganize waits for in-flight queries
	// to finish before canceling them.
	DrainTimeout time.Duration
	// Quota gates admission per tenant with fair token buckets
	// (the zero value admits everything, as before).
	Quota QuotaConfig
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 4
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	return c
}

// Metrics counts what the serving plane did. Every submission lands in
// exactly one of Completed, Sheds, Timeouts, Canceled, Aborted,
// PanicsContained, or Failed, so Submitted always equals their sum.
type Metrics struct {
	// Submitted counts calls to Do that passed the closed check.
	Submitted int
	// Completed counts queries that returned a report.
	Completed int
	// Sheds counts queries rejected at admission (ErrShed), whether by a
	// full queue or an empty tenant bucket.
	Sheds int
	// QuotaSheds counts the subset of Sheds rejected by a tenant quota
	// (ErrQuotaShed) rather than the shared queue.
	QuotaSheds int
	// Timeouts counts queries abandoned because their deadline fired.
	Timeouts int
	// Canceled counts queries abandoned by caller- or drain-initiated
	// cancellation.
	Canceled int
	// Aborted counts queries killed for exceeding their memory budget
	// (the backend error wraps govern.ErrMemLimit).
	Aborted int
	// PanicsContained counts queries that failed because a worker panic —
	// in the exec engine or the serving worker itself — was caught and
	// converted to a typed error (wrapping govern.ErrInternal) instead of
	// crashing the process.
	PanicsContained int
	// Failed counts queries that errored for any other reason.
	Failed int
	// Reorgs counts completed online reorganizations.
	Reorgs int
	// ReorgCancels counts in-flight queries canceled by a drain barrier
	// that hit its timeout.
	ReorgCancels int
}

// Check verifies the accounting invariant.
func (m Metrics) Check() error {
	sum := m.Completed + m.Sheds + m.Timeouts + m.Canceled + m.Aborted + m.PanicsContained + m.Failed
	if sum != m.Submitted {
		return fmt.Errorf("serve: %d submissions but outcomes sum to %d", m.Submitted, sum)
	}
	return nil
}

type jobResult struct {
	rep *multistore.QueryReport
	err error
}

type job struct {
	ctx    context.Context
	sql    string
	tenant string
	done   chan jobResult
	// canceledAt is the wall-clock nanosecond the job's context was
	// canceled (stamped by a context.AfterFunc), or 0 while live. The
	// worker reads it after the backend returns to measure cancel-to-idle
	// latency: how long a canceled query kept its worker busy.
	canceledAt atomic.Int64
}

// Server is the serving frontend. Create it with NewServer; Do submits
// queries from any goroutine; Close drains the workers.
//
// Reorganize quiesces the serving plane behind the drain barrier before
// the backend tunes, so the tuner's parallel what-if workers (which only
// read stores and estimator state) never overlap live queries' fault
// injector draws or WAL appends.
type Server struct {
	cfg     Config
	backend Backend
	jobs    chan *job
	wg      sync.WaitGroup

	// gate is the drain barrier: every executing query holds it for
	// read, Reorganize holds it for write.
	gate sync.RWMutex

	mu        sync.Mutex // guards closed, metrics, inflight, nextID, cancelLat, quo, tstats, reorgHook
	closed    bool
	metrics   Metrics
	inflight  map[int]context.CancelFunc
	nextID    int
	cancelLat []time.Duration
	quo       *quotas
	tstats    map[string]*TenantStats
	reorgHook func()
}

// NewServer starts the worker pool over the backend.
func NewServer(cfg Config, backend Backend) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		backend:  backend,
		jobs:     make(chan *job, cfg.QueueDepth),
		inflight: map[int]context.CancelFunc{},
		quo:      newQuotas(cfg.Quota, nil),
		tstats:   map[string]*TenantStats{},
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s
}

// Do submits one query and blocks until it resolves. The returned error
// is ErrShed when the queue was full, ErrClosed after Close, a
// context error (possibly wrapped by the backend) when the deadline
// fired or ctx was canceled, or the backend's execution error.
// Queries submitted via Do belong to the empty ("") tenant.
func (s *Server) Do(ctx context.Context, sql string) (*multistore.QueryReport, error) {
	return s.DoAs(ctx, "", sql)
}

// DoAs is Do with a tenant ID: the query is admitted against the
// tenant's quota bucket (when quotas are configured) and counted in its
// TenantStats either way. An empty bucket sheds with ErrQuotaShed, which
// wraps ErrShed.
func (s *Server) DoAs(ctx context.Context, tenant, sql string) (*multistore.QueryReport, error) {
	if s.cfg.QueryTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.QueryTimeout)
		defer cancel()
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	j := &job{ctx: ctx, sql: sql, tenant: tenant, done: make(chan jobResult, 1)}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	s.metrics.Submitted++
	t := s.tenant(tenant)
	t.Submitted++
	// Per-tenant admission runs before the shared queue: a hot tenant
	// exhausts its own bucket and sheds there, leaving queue space for
	// the tenants still inside their budgets.
	if s.quo != nil && !s.quo.admit(tenant) {
		s.metrics.Sheds++
		s.metrics.QuotaSheds++
		t.Shed++
		s.mu.Unlock()
		return nil, fmt.Errorf("tenant %q: %w (%w)", tenant, ErrQuotaShed, ErrShed)
	}
	// Admission: non-blocking send under s.mu, which also excludes Close,
	// so the channel cannot be closed under the send.
	select {
	case s.jobs <- j:
	default:
		s.metrics.Sheds++
		t.Shed++
		s.mu.Unlock()
		return nil, ErrShed
	}
	id := s.nextID
	s.nextID++
	s.inflight[id] = cancel
	s.mu.Unlock()

	res := <-j.done

	s.mu.Lock()
	delete(s.inflight, id)
	switch {
	case res.err == nil:
		s.metrics.Completed++
		t.Served++
	case errors.Is(res.err, context.DeadlineExceeded):
		s.metrics.Timeouts++
		t.Failed++
	case errors.Is(res.err, context.Canceled):
		s.metrics.Canceled++
		t.Failed++
	case errors.Is(res.err, govern.ErrMemLimit):
		s.metrics.Aborted++
		t.Failed++
	case errors.Is(res.err, govern.ErrInternal):
		s.metrics.PanicsContained++
		t.Failed++
	default:
		s.metrics.Failed++
		t.Failed++
	}
	s.mu.Unlock()
	return res.rep, res.err
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.jobs {
		s.gate.RLock()
		// Stamp the moment the job's context dies so cancel-to-idle
		// latency can be measured when the backend hands the worker back.
		stop := context.AfterFunc(j.ctx, func() {
			j.canceledAt.Store(time.Now().UnixNano())
		})
		var res jobResult
		// Last-resort containment: a panic that escapes the backend's own
		// recovery (or lives in the serving plane itself) fails this query
		// with a typed error instead of crashing the whole server.
		if err := govern.Capture("serve worker", func() error {
			res.rep, res.err = s.backend.RunContext(j.ctx, j.sql)
			return nil
		}); err != nil {
			res = jobResult{err: err}
		}
		stop()
		if at := j.canceledAt.Load(); at != 0 && isCancelErr(res.err) {
			lat := time.Since(time.Unix(0, at))
			s.mu.Lock()
			s.cancelLat = append(s.cancelLat, lat)
			s.mu.Unlock()
		}
		s.gate.RUnlock()
		j.done <- res
	}
}

// isCancelErr reports whether err is how a canceled or timed-out query
// surfaces from the backend.
func isCancelErr(err error) bool {
	return err != nil &&
		(errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded))
}

// Reorganize quiesces the serving plane and runs one reorganization.
// It blocks new executions behind the drain barrier, waits up to
// DrainTimeout for in-flight queries to finish, cancels the stragglers
// (their partial work is charged to RECOVERY by the backend), and then
// reorganizes with exclusive access. Queued queries resume afterwards.
// The barrier cannot deadlock: every query reaches a cancellation
// checkpoint in bounded work, so a canceled straggler always releases
// its read lock.
func (s *Server) Reorganize() error {
	acquired := make(chan struct{})
	go func() {
		s.gate.Lock()
		close(acquired)
	}()
	select {
	case <-acquired:
	case <-time.After(s.cfg.DrainTimeout):
		// Drain timed out: cancel everything in flight and wait for the
		// barrier. (sync.RWMutex is not goroutine-affine, so unlocking
		// here a lock acquired in the helper goroutine is well-defined.)
		s.mu.Lock()
		for _, cancel := range s.inflight {
			cancel()
			s.metrics.ReorgCancels++
		}
		s.mu.Unlock()
		<-acquired
	}
	defer s.gate.Unlock()

	s.mu.Lock()
	hook := s.reorgHook
	s.mu.Unlock()
	if hook != nil {
		hook()
	}
	err := s.backend.Reorganize()
	s.mu.Lock()
	s.metrics.Reorgs++
	s.mu.Unlock()
	return err
}

// SetReorgHook registers fn to run inside the drain barrier — write gate
// held, no query in flight — immediately before every online
// reorganization. Nothing in the system needs it: a reorganization clears
// the result views itself, first thing. The benchmark module still
// registers System.InvalidateReuse here. A nil fn clears the hook.
func (s *Server) SetReorgHook(fn func()) {
	s.mu.Lock()
	s.reorgHook = fn
	s.mu.Unlock()
}

// Quiesce registers background work (the integrity scrubber) with the
// drain barrier and returns its release function. The caller may then
// touch backend state knowing Reorganize is not mid-flight: the barrier
// is held for read, exactly as an executing query holds it, so scrub
// chunks and reorganizations strictly alternate — a scrub pass observes
// the catalog entirely before or entirely after a reorg, never during.
// Unlike Do, Quiesce does not occupy a worker; the scrubber must not
// compete with queries for admission.
func (s *Server) Quiesce() (release func()) {
	s.gate.RLock()
	return s.gate.RUnlock
}

// Close stops admission, waits for queued and in-flight queries to
// finish, and returns. Safe to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.jobs)
	s.mu.Unlock()
	s.wg.Wait()
}

// Metrics returns a snapshot of the serving counters.
func (s *Server) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.metrics
}

// CancelLatencies returns the cancel-to-idle latency of every canceled or
// timed-out query served so far: the real time between the query's context
// dying and its worker becoming free again. The governance plane's promise
// is that these stay bounded — a canceled query cannot hold a worker
// hostage past the next morsel claim or merge poll.
func (s *Server) CancelLatencies() []time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]time.Duration(nil), s.cancelLat...)
}
