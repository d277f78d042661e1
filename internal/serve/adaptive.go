package serve

import (
	"sync"
	"time"

	"miso/internal/govern"
)

// AdaptiveConfig tunes the AIMD concurrency limiter: when the p99 of
// served-query latencies over a window exceeds TargetP99, the effective
// worker limit halves (multiplicative decrease — brownout); while p99
// stays under target, it creeps back up one slot per window (additive
// increase) toward Config.Workers. The limit never falls below one slot,
// so the server always makes some progress. The zero value disables the
// limiter.
type AdaptiveConfig struct {
	// TargetP99 is the latency objective for served queries. Zero
	// disables adaptive limiting.
	TargetP99 time.Duration
	// Window is how many served latencies feed one adjustment decision.
	// Zero means 32.
	Window int
}

// limiter is the AIMD gate workers pass through before executing. A nil
// limiter is a no-op (adaptive limiting disabled).
type limiter struct {
	mu   sync.Mutex
	cond *sync.Cond
	cfg  AdaptiveConfig
	max  int // Config.Workers: the additive-increase ceiling
	lim  int
	busy int
	lats []time.Duration
	incs int
	decs int
}

func newLimiter(cfg AdaptiveConfig, workers int) *limiter {
	if cfg.TargetP99 <= 0 {
		return nil
	}
	if cfg.Window <= 0 {
		cfg.Window = 32
	}
	l := &limiter{cfg: cfg, max: workers, lim: workers,
		lats: make([]time.Duration, 0, cfg.Window)}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// acquire blocks until a concurrency slot is free. Workers call it
// *before* taking the drain barrier so a squeezed limit can never hold
// read locks that Reorganize's write lock is waiting behind.
func (l *limiter) acquire() {
	if l == nil {
		return
	}
	l.mu.Lock()
	for l.busy >= l.lim {
		l.cond.Wait()
	}
	l.busy++
	l.mu.Unlock()
}

func (l *limiter) release() {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.busy--
	l.mu.Unlock()
	l.cond.Signal()
}

// observe feeds one served-query latency; every full window adjusts the
// limit (AIMD) and wakes any waiters the new limit admits.
func (l *limiter) observe(d time.Duration) {
	if l == nil {
		return
	}
	l.mu.Lock()
	l.lats = append(l.lats, d)
	if len(l.lats) >= l.cfg.Window {
		if govern.Percentile(l.lats, 99) > l.cfg.TargetP99 {
			l.lim = max(l.lim/2, 1)
			l.decs++
		} else if l.lim < l.max {
			l.lim++
			l.incs++
		}
		l.lats = l.lats[:0]
	}
	l.mu.Unlock()
	l.cond.Broadcast()
}

// snapshot returns the current limit and the adjustment counts.
func (l *limiter) snapshot() (lim, incs, decs int) {
	if l == nil {
		return 0, 0, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lim, l.incs, l.decs
}
