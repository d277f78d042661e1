// Package govern is the query-level resource-governance plane: per-query
// memory reservation ledgers, and panic capture that converts a worker
// goroutine's panic into a typed error so one bad operator cannot kill
// the process or other in-flight queries.
//
// The package is a leaf: exec, hv, dw, multistore, serve, and the tuner
// all import it, so it must not import any of them. Every method is
// nil-receiver safe — a nil *Ledger or *Scope is the disabled governance
// plane and costs one branch per call.
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
	// exceeded its per-query limit.
	ErrMemLimit = errors.New("govern: memory limit exceeded")
	// ErrInternal marks a query that failed because a worker goroutine
	// panicked; the panic was contained and converted to this error, so
	// the process and all other queries stay alive.
	ErrInternal = errors.New("govern: internal error (worker panic contained)")
)

// Ledger is one query's memory reservation account. Reservations are
// charged as extract buffers, hash partitions, sort keys, and
// materialized intermediates grow; exceeding the per-query limit returns
// an error wrapping ErrMemLimit. A nil ledger disables accounting. Safe
// for concurrent use by morsel workers.
type Ledger struct {
	limit int64
	used  atomic.Int64
	high  atomic.Int64
}

// NewLedger returns a ledger enforcing the per-query limit in bytes, or
// nil when limit <= 0: governance fully disabled, zero overhead.
func NewLedger(limit int64) *Ledger {
	if limit <= 0 {
		return nil
	}
	return &Ledger{limit: limit}
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
// ErrMemLimit leaving the ledger unchanged. n <= 0 is a no-op. A refused
// reservation never touches used, so it cannot make a concurrent
// reservation that fits look over the limit.
func (l *Ledger) Reserve(n int64) error {
	if l == nil || n <= 0 {
		return nil
	}
	var now int64
	for {
		cur := l.used.Load()
		if now = cur + n; now > l.limit {
			return fmt.Errorf("%w: query needs %d B over %d B in use, per-query limit %d B",
				ErrMemLimit, n, cur, l.limit)
		}
		if l.used.CompareAndSwap(cur, now) {
			break
		}
	}
	for {
		h := l.high.Load()
		if now <= h || l.high.CompareAndSwap(h, now) {
			return nil
		}
	}
}

// Release returns n bytes to the ledger.
func (l *Ledger) Release(n int64) {
	if l == nil || n <= 0 {
		return
	}
	l.used.Add(-n)
}

// ReleaseAll returns every outstanding byte, ending the query's account.
func (l *Ledger) ReleaseAll() {
	if l == nil {
		return
	}
	l.used.Store(0)
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
