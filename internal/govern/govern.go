// Package govern is the query-level resource-governance plane: per-query
// memory reservation ledgers drawing on a server-wide pool, and panic
// capture that converts a worker goroutine's panic into a typed error so
// one bad operator cannot kill the process or other in-flight queries.
//
// The package is a leaf: exec, hv, dw, multistore, serve, and the tuner
// all import it, so it must not import any of them. Every method is
// nil-receiver safe — a nil *Pool, *Ledger, or *Scope is the disabled
// governance plane and costs one branch per call.
package govern

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
)

// Typed sentinels callers match with errors.Is.
var (
	// ErrMemLimit marks a query aborted because a memory reservation
	// exceeded its per-query limit or exhausted the server-wide pool.
	ErrMemLimit = errors.New("govern: memory limit exceeded")
	// ErrInternal marks a query that failed because a worker goroutine
	// panicked; the panic was contained and converted to this error, so
	// the process and all other queries stay alive.
	ErrInternal = errors.New("govern: internal error (worker panic contained)")
)

// Pool is the server-wide memory pool shared by every in-flight query's
// ledger. A nil pool is unlimited.
type Pool struct {
	capacity int64
	used     atomic.Int64
}

// NewPool returns a pool with the given capacity in bytes, or nil
// (unlimited) when capacity <= 0.
func NewPool(capacity int64) *Pool {
	if capacity <= 0 {
		return nil
	}
	return &Pool{capacity: capacity}
}

// tryReserve attempts to take n bytes from the pool, returning false when
// the pool would overflow. Safe for concurrent use.
func (p *Pool) tryReserve(n int64) bool {
	if p == nil {
		return true
	}
	for {
		cur := p.used.Load()
		if cur+n > p.capacity {
			return false
		}
		if p.used.CompareAndSwap(cur, cur+n) {
			return true
		}
	}
}

// release returns n bytes to the pool.
func (p *Pool) release(n int64) {
	if p == nil || n == 0 {
		return
	}
	p.used.Add(-n)
}

// Used reports the bytes currently reserved across all ledgers.
func (p *Pool) Used() int64 {
	if p == nil {
		return 0
	}
	return p.used.Load()
}

// Capacity reports the pool's capacity; 0 means unlimited (nil pool).
func (p *Pool) Capacity() int64 {
	if p == nil {
		return 0
	}
	return p.capacity
}

// Ledger is one query's memory reservation account. Reservations are
// charged as extract buffers, hash partitions, sort keys, and
// materialized intermediates grow; exceeding the per-query limit or the
// shared pool returns an error wrapping ErrMemLimit. A nil ledger
// disables accounting. Safe for concurrent use by morsel workers.
type Ledger struct {
	limit int64 // per-query cap; 0 = unlimited
	pool  *Pool
	used  atomic.Int64
	high  atomic.Int64
}

// NewLedger returns a ledger enforcing the per-query limit (0 =
// unlimited) against the shared pool (nil = unlimited). When both are
// unlimited it returns nil: governance fully disabled, zero overhead.
func NewLedger(limit int64, pool *Pool) *Ledger {
	if limit <= 0 && pool == nil {
		return nil
	}
	if limit < 0 {
		limit = 0
	}
	return &Ledger{limit: limit, pool: pool}
}

type ledgerKey struct{}

// WithLedger returns ctx carrying the query's ledger, which is how the
// ledger reaches the stores: whoever executes under the query's context
// charges the query, and nobody else does. A nil ledger returns ctx as is.
func WithLedger(ctx context.Context, l *Ledger) context.Context {
	if l == nil {
		return ctx
	}
	return context.WithValue(ctx, ledgerKey{}, l)
}

// LedgerFrom returns the ledger ctx carries, or nil (unmetered).
func LedgerFrom(ctx context.Context) *Ledger {
	l, _ := ctx.Value(ledgerKey{}).(*Ledger)
	return l
}

// Reserve charges n bytes to the query, or returns an error wrapping
// ErrMemLimit leaving the ledger unchanged. n <= 0 is a no-op.
func (l *Ledger) Reserve(n int64) error {
	if l == nil || n <= 0 {
		return nil
	}
	now := l.used.Add(n)
	if l.limit > 0 && now > l.limit {
		l.used.Add(-n)
		return fmt.Errorf("%w: query needs %d B over %d B in use, per-query limit %d B",
			ErrMemLimit, n, now-n, l.limit)
	}
	if !l.pool.tryReserve(n) {
		l.used.Add(-n)
		return fmt.Errorf("%w: query needs %d B but server pool has %d of %d B in use",
			ErrMemLimit, n, l.pool.Used(), l.pool.Capacity())
	}
	for {
		h := l.high.Load()
		if now <= h || l.high.CompareAndSwap(h, now) {
			return nil
		}
	}
}

// Release returns n bytes to the ledger (and pool).
func (l *Ledger) Release(n int64) {
	if l == nil || n <= 0 {
		return
	}
	l.used.Add(-n)
	l.pool.release(n)
}

// ReleaseAll returns every outstanding byte, ending the query's account.
func (l *Ledger) ReleaseAll() {
	if l == nil {
		return
	}
	n := l.used.Swap(0)
	l.pool.release(n)
}

// Used reports the bytes currently reserved.
func (l *Ledger) Used() int64 {
	if l == nil {
		return 0
	}
	return l.used.Load()
}

// HighWater reports the peak reservation over the ledger's lifetime.
func (l *Ledger) HighWater() int64 {
	if l == nil {
		return 0
	}
	return l.high.Load()
}

// NewScope opens a scoped sub-account for one operator's transient state
// (hash partitions, sort keys, chunk buffers): the operator reserves as
// its buffers grow and Release returns everything at once when the
// operator's output is materialized. Nil-safe.
func (l *Ledger) NewScope() *Scope {
	if l == nil {
		return nil
	}
	return &Scope{l: l}
}

// Scope tracks the reservations one operator made so they can be
// released together. Safe for concurrent use by morsel workers.
type Scope struct {
	l *Ledger
	n atomic.Int64
}

// Reserve charges n bytes to the scope's ledger.
func (s *Scope) Reserve(n int64) error {
	if s == nil || n <= 0 {
		return nil
	}
	if err := s.l.Reserve(n); err != nil {
		return err
	}
	s.n.Add(n)
	return nil
}

// Release returns every byte the scope reserved.
func (s *Scope) Release() {
	if s == nil {
		return
	}
	s.l.Release(s.n.Swap(0))
}

// PanicError is a worker panic converted to an error: the operator (or
// stage) that panicked, the recovered value, and the goroutine stack.
// It wraps ErrInternal, so errors.Is(err, govern.ErrInternal) matches.
type PanicError struct {
	// Op names the operator or worker that panicked ("join", "what-if").
	Op string
	// Value is the value passed to panic.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// NewPanicError builds a PanicError from a recovered value.
func NewPanicError(op string, value any, stack []byte) *PanicError {
	return &PanicError{Op: op, Value: value, Stack: stack}
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("govern: panic in %s contained: %v", e.Op, e.Value)
}

// Unwrap makes errors.Is(err, ErrInternal) match.
func (e *PanicError) Unwrap() error { return ErrInternal }

// Capture runs fn, converting a panic into a *PanicError carrying op and
// the stack. Use it to wrap the body of every worker goroutine so a
// panicking operator fails only its own query.
func Capture(op string, fn func() error) (err error) {
	defer func() {
		if v := recover(); v != nil {
			err = NewPanicError(op, v, debug.Stack())
		}
	}()
	return fn()
}
