package multistore

import (
	"context"
	"runtime"
	"sync"
	"time"

	"miso/internal/dw"
	"miso/internal/govern"
	"miso/internal/hv"
	"miso/internal/logical"
	"miso/internal/optimizer"
)

// HedgeConfig tunes hedged DW execution (Config.Hedge). The zero value
// disables hedging entirely; an enabled config with zero fields gets the
// defaults below.
type HedgeConfig struct {
	// Enabled turns hedging on. Off, the DW phase runs exactly as before —
	// no goroutine, no timer, no tracker.
	Enabled bool
	// Multiplier scales the sliding-window p95 of observed DW wall
	// durations into the hedge threshold: the shadow starts once the DW
	// side has run Multiplier×p95 without finishing. Zero means 2.
	Multiplier float64
	// MinDelay floors the threshold so cold starts and microsecond DW
	// queries don't hedge every call. Zero means 25ms.
	MinDelay time.Duration
}

// hedgeWindow is the sliding-window size for observed DW durations.
const hedgeWindow = 32

func (c HedgeConfig) withDefaults() HedgeConfig {
	if c.Multiplier <= 0 {
		c.Multiplier = 2
	}
	if c.MinDelay <= 0 {
		c.MinDelay = 25 * time.Millisecond
	}
	return c
}

// hedgeTracker keeps the sliding window of observed DW wall durations and
// derives the adaptive hedge threshold from it. It is only touched from
// the serialized query flow (under s.mu), so it needs no lock. Durations
// are real wall-clock, not simulated seconds: the threshold governs only
// when the shadow starts, never what any side computes or charges.
type hedgeTracker struct {
	cfg  HedgeConfig
	durs []time.Duration
	next int
}

func newHedgeTracker(cfg HedgeConfig) *hedgeTracker {
	if !cfg.Enabled {
		return nil
	}
	return &hedgeTracker{cfg: cfg, durs: make([]time.Duration, 0, hedgeWindow)}
}

func (t *hedgeTracker) observe(d time.Duration) {
	if t == nil {
		return
	}
	if len(t.durs) < hedgeWindow {
		t.durs = append(t.durs, d)
		return
	}
	t.durs[t.next] = d
	t.next = (t.next + 1) % hedgeWindow
}

// threshold returns MinDelay until enough samples exist, then
// max(MinDelay, Multiplier × p95 of the window).
func (t *hedgeTracker) threshold() time.Duration {
	if len(t.durs) < 3 {
		return t.cfg.MinDelay
	}
	th := time.Duration(t.cfg.Multiplier * float64(govern.Percentile(t.durs, 95)))
	if th < t.cfg.MinDelay {
		th = t.cfg.MinDelay
	}
	return th
}

// hedgeRun is one armed hedge: a timer that, after the adaptive threshold,
// starts computing the HV fallback plan (hv.BeginExecute — real tuples,
// zero store-state effects) in a goroutine racing the DW side. The timer
// callback must never touch s.metrics or anything under s.mu: the main
// query flow holds s.mu for the whole query.
type hedgeRun struct {
	cancel context.CancelFunc
	timer  *time.Timer
	// done is closed by the timer callback when it finishes (whether it
	// ran the shadow or observed the abort flag); it never closes when
	// timer.Stop preempts the callback entirely.
	done chan struct{}

	mu      sync.Mutex
	started bool
	aborted bool

	pending *hv.Pending
	err     error
}

// armHedge schedules the shadow for the given (already rewritten,
// signature-prewarmed) HV fallback plan. The shadow computes under a child
// of the query's context, so it is canceled with the query and its memory
// is charged to the query's ledger.
func (s *System) armHedge(ctx context.Context, plan *logical.Node) *hedgeRun {
	hctx, cancel := context.WithCancel(ctx)
	hr := &hedgeRun{cancel: cancel, done: make(chan struct{})}
	hr.timer = time.AfterFunc(s.hedge.threshold(), func() {
		hr.mu.Lock()
		if hr.aborted {
			hr.mu.Unlock()
			close(hr.done)
			return
		}
		hr.started = true
		hr.mu.Unlock()
		hr.pending, hr.err = s.hv.BeginExecute(hctx, plan)
		close(hr.done)
	})
	return hr
}

// discard cancels the hedge — the DW side won (or aborted). It returns
// only after any in-flight shadow has fully stopped, so no goroutine
// outlives the query. Reports whether the shadow had actually started
// (for the HedgesCanceled counter). Nil-safe.
func (hr *hedgeRun) discard() bool {
	if hr == nil {
		return false
	}
	hr.mu.Lock()
	hr.aborted = true
	started := hr.started
	hr.mu.Unlock()
	stopped := hr.timer.Stop()
	hr.cancel()
	if !stopped {
		// The callback fired before Stop: it will close done either way
		// (abort branch or a canceled shadow run).
		<-hr.done
	}
	return started
}

// await collects the shadow's result for commit — the DW side lost. If the
// hedge threshold never fired (the timer is still pending), it reports
// ok=false and the caller runs the serial fallback instead. If the timer
// fired, the shadow counts even when its goroutine lost the scheduling
// race and hasn't run yet: await lets it proceed and waits — the decision
// "hedge before DW finished" was made by the timer, not by the scheduler.
// Nil-safe.
func (hr *hedgeRun) await() (p *hv.Pending, err error, ok bool) {
	if hr == nil {
		return nil, nil, false
	}
	hr.mu.Lock()
	started := hr.started
	if !started && hr.timer.Stop() {
		// Timer still pending: no shadow will ever run.
		hr.aborted = true
		hr.mu.Unlock()
		hr.cancel()
		return nil, nil, false
	}
	// Either the shadow is running (or finished), or the callback fired
	// and is queued; leave aborted unset so a queued callback runs it.
	hr.mu.Unlock()
	<-hr.done
	hr.cancel()
	return hr.pending, hr.err, true
}

// executeDWHedged runs the DW part of a split plan, arming a hedge when
// enabled. The returned hedgeRun (nil when hedging is off) must be
// resolved by the caller on every path: discard() when the DW side's
// result is kept or the query aborts, await() when the DW side exhausted
// its retries and the shadow may stand in for the serial fallback.
//
// The fallback plan is rewritten against the HV views *now*, but the DW
// phase mutates no HV view state, so it is the same plan the serial
// fallback would build later — that identity is what makes the committed
// shadow byte-equivalent to the serial path.
func (s *System) executeDWHedged(q *query, dwPart *logical.Node) (*dw.Result, *hedgeRun, error) {
	if s.hedge == nil {
		res, err := s.dw.ExecuteContext(q.ctx, dwPart)
		return res, nil, err
	}
	hr := s.armHedge(q.ctx, optimizer.RewriteWithViews(q.entry.Plan, s.hv.Views))
	// Hedges counts armed hedges, decided here on the serialized flow —
	// deterministic regardless of whether the shadow goroutine wins the
	// scheduling race before the DW side finishes.
	s.metrics.Hedges++
	// One scheduler pass so a due timer (sub-millisecond thresholds) gets
	// its callback queued even on GOMAXPROCS=1, where a CPU-bound DW
	// phase would otherwise never yield.
	runtime.Gosched()
	start := time.Now()
	res, err := s.dw.ExecuteContext(q.ctx, dwPart)
	s.hedge.observe(time.Since(start))
	return res, hr, err
}
