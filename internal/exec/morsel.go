// Morsel-driven scheduling: operator inputs are partitioned into fixed-size
// row-range morsels that a bounded worker pool pulls off a shared atomic
// counter (work stealing at morsel granularity). Morsel boundaries depend
// only on the input size and the configured morsel size — never on the
// worker count — so per-morsel partial results can be merged in a fixed
// order and the engine's output is byte-identical at any parallelism.
//
// The pool is also where the governance plane bites: every worker checks
// the query's context at each morsel claim (so a canceled query releases
// its workers within one morsel of work), and every morsel body runs under
// govern.Capture (so a panicking operator fails only its own query). Both
// are no-ops when Env.Ctx and the fault injector are nil.
//
// Every operator sizes its pool to its input with opWorkers: the pool is
// min(Env.Workers or GOMAXPROCS, morsels of the input). An input that fits
// one morsel — a small view, a small join — therefore runs every phase
// (the fused pass, the aggregate and join partition builds, the join's
// hash and probe, the sort keys) on the calling goroutine, with one
// worker's compiled evaluators and scratch. The partition fan-out stays
// `partitions` and the morsel boundaries stay fixed, so the tasks, the
// exec-plane fault draws and the ledger reservations an operator makes do
// not depend on its pool; only the goroutine that runs them does.
package exec

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"miso/internal/faults"
	"miso/internal/govern"
)

// DefaultMorselRows is the fixed morsel size: large enough that the atomic
// fetch and goroutine handoff amortize to nothing, small enough that a
// skewed morsel cannot stall the pool at the end of an operator — which
// also bounds how much work a worker does between cancellation checks.
const DefaultMorselRows = 1024

// stragglerStallMax bounds the wall-clock sleep a SiteSlowMorsel injection
// adds to one morsel (scaled by the injector's frac draw). Small enough to
// keep chaos runs fast, large enough to make cancellation latency visible.
const stragglerStallMax = 2 * time.Millisecond

// cancelPollRows is how many rows a serial merge or sort loop processes
// between cancellation polls.
const cancelPollRows = 4096

// workerCount resolves Env.Workers to a pool size: 0 means GOMAXPROCS, and
// a negative value, which the CLIs reject before it gets here, runs with
// one worker.
func (env *Env) workerCount() int {
	w := env.Workers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (env *Env) morselRows() int {
	if env.MorselRows > 0 {
		return env.MorselRows
	}
	return DefaultMorselRows
}

// opWorkers sizes an operator's pool to an input of nRows: never more
// workers than the input has morsels, so a one-morsel input runs on the
// calling goroutine and no compiled evaluator or scratch is built for a
// worker that would claim nothing.
func opWorkers(env *Env, nRows int) int {
	return max(1, min(env.workerCount(), morselCount(nRows, env.morselRows())))
}

// poolStart, when a test sets it, is told every goroutine pool forEachTask
// starts.
var poolStart func(op string, workers int)

// cancelErr returns the query's cancellation error, or nil. Workers call
// it at every morsel claim; merge loops poll it every cancelPollRows rows.
func (env *Env) cancelErr() error {
	if env.Ctx == nil {
		return nil
	}
	if err := env.Ctx.Err(); err != nil {
		return fmt.Errorf("exec: canceled: %w", err)
	}
	return nil
}

// scope opens a reservation scope for one operator's transient memory
// (chunk buffers, hash partitions, sort keys). Nil when no ledger is set.
func (env *Env) scope() *govern.Scope { return env.Mem.NewScope() }

// reserve charges transient operator memory to the scope, first giving the
// mem-pressure fault site a chance to fail the reservation as if the
// ledger were exhausted. Nil scope and nil injector are both no-ops.
func (env *Env) reserve(sc *govern.Scope, bytes int64) error {
	if failed, _ := env.Inj.Check(faults.SiteMemPressure); failed {
		return fmt.Errorf("exec: injected memory pressure (%d B requested): %w", bytes, govern.ErrMemLimit)
	}
	return sc.Reserve(bytes)
}

// morselCount returns how many morsels cover n rows.
func morselCount(n, morselRows int) int {
	return (n + morselRows - 1) / morselRows
}

// failFirst keeps the first error a pool worker hit and tells the other
// workers to stop claiming work.
type failFirst struct {
	failed atomic.Bool
	mu     sync.Mutex
	e      error
}

func (f *failFirst) set(err error) {
	f.mu.Lock()
	if f.e == nil {
		f.e = err
	}
	f.mu.Unlock()
	f.failed.Store(true)
}

func (f *failFirst) aborted() bool { return f.failed.Load() }

func (f *failFirst) err() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.e
}

// runMorsel executes one morsel body under panic capture, with the
// exec-plane fault sites (injected worker panic, straggler stall) applied
// first. Both injections happen inside the capture so an injected panic
// exercises exactly the containment path a real one would.
func runMorsel(env *Env, op string, m int, fn func() error) error {
	return govern.Capture(op, func() error {
		if failed, _ := env.Inj.Check(faults.SiteExecPanic); failed {
			panic(fmt.Sprintf("injected exec worker panic: %s morsel %d", op, m))
		}
		if failed, frac := env.Inj.Check(faults.SiteSlowMorsel); failed {
			time.Sleep(time.Duration(frac * float64(stragglerStallMax)))
		}
		return fn()
	})
}

// forEachMorsel partitions [0, n) into fixed-size row ranges and fans them
// out over the worker pool. fn receives the worker index (so callers can
// keep per-worker scratch state such as compiled evaluators), the morsel
// index, and the half-open row range. With one worker — or one morsel —
// everything runs inline on the calling goroutine.
//
// Governance: each worker checks cancellation before every claim and stops
// claiming once any worker fails; a panic in fn fails the operator with a
// typed govern.ErrInternal instead of killing the process. The first error
// wins and is returned after all workers have parked.
func forEachMorsel(env *Env, op string, workers, n, morselRows int, fn func(w, m, start, end int) error) error {
	return forEachTask(env, op, workers, morselCount(n, morselRows), func(w, m int) error {
		start, end := morselRange(m, n, morselRows)
		return fn(w, m, start, end)
	})
}

func morselRange(m, n, morselRows int) (start, end int) {
	start = m * morselRows
	end = start + morselRows
	if end > n {
		end = n
	}
	return start, end
}

// forEachTask runs n independent tasks (forEachMorsel's morsels,
// hash-partition builds, partition accumulation) over the worker pool,
// under forEachMorsel's governance contract. With one worker everything
// runs inline; callers size workers with opWorkers, so every task of a
// one-morsel input does.
func forEachTask(env *Env, op string, workers, n int, fn func(w, i int) error) error {
	if n == 0 {
		return nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := env.cancelErr(); err != nil {
				return err
			}
			if err := runMorsel(env, op, i, func() error { return fn(0, i) }); err != nil {
				return err
			}
		}
		return nil
	}
	if poolStart != nil {
		poolStart(op, workers)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var fail failFirst
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				if fail.aborted() {
					return
				}
				if err := env.cancelErr(); err != nil {
					fail.set(err)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := runMorsel(env, op, i, func() error { return fn(w, i) }); err != nil {
					fail.set(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	return fail.err()
}
