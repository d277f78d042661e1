// The load driver every row of the scenario table runs through. One driver
// submits requests to one serve.Server — or, for a sequential row, straight
// to the system, one query at a time — and books each outcome in one tally
// through one classifier. There are two loop shapes. Closed loop: N
// clients, each holding at most one query in flight, optionally pausing a
// jittered think time between a response and the next submission, until a
// per-client count is reached or a stop channel closes. Open loop: every
// tenant offers its rate for a duration without waiting for responses,
// paced by target count (want = rate × elapsed) rather than per tick, so
// the offered load stays honest when the scheduler starves the pacer and
// its ticker coalesces — a saturated 1-CPU box must still see true
// overload. Side traffic (the ETL storm, the endurance horizon, forced
// reorganizations) is the driver's too: it runs beside a loop and stops
// with it.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"miso/internal/data"
	"miso/internal/faults"
	"miso/internal/govern"
	"miso/internal/multistore"
	"miso/internal/serve"
)

// request is one submission: who asks, what, and under which context.
type request struct {
	tenant string
	sql    string
	// ctx is the query's context; nil means context.Background().
	ctx context.Context
	// release, when set, runs once the query has resolved (it frees what
	// ctx holds: a cancel func, a cancellation timer).
	release func()
}

// outcome is what a submission came to, as the tally counts it.
type outcome int

const (
	// outServed: the query returned a report.
	outServed outcome = iota
	// outShed: rejected at admission, by the shared queue or a tenant quota.
	outShed
	// outGoverned: an expected governed failure — deadline or cancel
	// abandon, memory-budget abort, contained panic. Counted as failed, but
	// does not fail the run.
	outGoverned
	// outHard: anything else. Counted as failed and fails the run.
	outHard
)

// classify maps what serve.Server (or the system) returned to an outcome.
func classify(err error) outcome {
	switch {
	case err == nil:
		return outServed
	case errors.Is(err, serve.ErrShed): // ErrQuotaShed wraps ErrShed
		return outShed
	case errors.Is(err, context.DeadlineExceeded),
		errors.Is(err, context.Canceled),
		errors.Is(err, govern.ErrMemLimit),
		errors.Is(err, govern.ErrInternal):
		return outGoverned
	default:
		return outHard
	}
}

// tally is what one phase of a driver run counted; once the phase has
// returned it is also the phase's record in its row's outcome.
type tally struct {
	mu   sync.Mutex
	Name string `json:"name"`
	// Submitted counts dispatches; Served + Shed + Failed counts
	// resolutions, and equals Submitted once the run has returned.
	Submitted    int            `json:"submitted"`
	Served       int            `json:"served"`
	Shed         int            `json:"shed"`
	Failed       int            `json:"failed"`
	TenantServed map[string]int `json:"tenant_served,omitempty"`
	TenantShed   map[string]int `json:"tenant_shed,omitempty"`
	// The summary of a finished phase (summarize).
	Seconds      float64 `json:"seconds"`
	OfferedQPS   float64 `json:"offered_qps,omitempty"`
	GoodputQPS   float64 `json:"goodput_qps"`
	P50Ms        float64 `json:"p50_ms"`
	P99Ms        float64 `json:"p99_ms"`
	CacheEntries int     `json:"cache_entries,omitempty"`
	// latencies holds the wall-clock latency of every served query.
	latencies []time.Duration
	// hardErr is the first outHard error (or onResult error) seen.
	hardErr error
}

func (t *tally) submit() {
	t.mu.Lock()
	t.Submitted++
	t.mu.Unlock()
}

// record books one resolved query and returns its completion ordinal
// (1-based, across all clients).
func (t *tally) record(tenant string, lat time.Duration, err error) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch classify(err) {
	case outServed:
		t.Served++
		t.TenantServed[tenant]++
		t.latencies = append(t.latencies, lat)
	case outShed:
		t.Shed++
		t.TenantShed[tenant]++
	case outGoverned:
		t.Failed++
	case outHard:
		t.Failed++
		if t.hardErr == nil {
			t.hardErr = fmt.Errorf("tenant %q: %w", tenant, err)
		}
	}
	return t.Served + t.Shed + t.Failed
}

// fail books err as the run's hard error unless one is already held.
func (t *tally) fail(err error) {
	t.mu.Lock()
	if t.hardErr == nil {
		t.hardErr = err
	}
	t.mu.Unlock()
}

// check is the verdict of a finished run: its first hard error, or an
// accounting error when the resolutions do not add up to the submissions.
func (t *tally) check() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.hardErr == nil && t.Submitted != t.Served+t.Shed+t.Failed {
		return fmt.Errorf("tally: %d submitted != %d served + %d shed + %d failed", t.Submitted, t.Served, t.Shed, t.Failed)
	}
	return t.hardErr
}

// percentile reads the served-latency distribution by govern.Percentile's
// nearest-rank rule, the one every gate in the tree is calibrated to.
func (t *tally) percentile(p int) time.Duration { return govern.Percentile(t.latencies, p) }

// driver submits requests and books what comes back. A row that runs
// several phases gives each a fresh tally.
type driver struct {
	// srv serves the row's queries; nil runs them on sys in order.
	srv *serve.Server
	sys *multistore.System
	// mcfg is what sys was built from; a sequential row recovers from it
	// after a simulated process death (recover), which replaces sys.
	mcfg  multistore.Config
	rec   RecoveryStats
	tally *tally
	// onResult, when set, sees every resolved query outside the tally
	// lock: its completion ordinal, the request, and what came back. An
	// error it returns is booked as a hard error.
	onResult func(n int, q request, rep *multistore.QueryReport, err error) error
	// reorgEvery forces an online reorganization through the drain
	// barrier after every n-th completion; 0 forces none.
	reorgEvery int
}

func newTally(name string) *tally {
	return &tally{Name: name, TenantServed: map[string]int{}, TenantShed: map[string]int{}}
}

func newDriver(srv *serve.Server, sys *multistore.System) *driver {
	return &driver{srv: srv, sys: sys, tally: newTally("")}
}

// do runs one query through the server, or on the system when there is
// none; there a simulated process death is survived by recovering the
// system and resubmitting the query that died.
func (d *driver) do(ctx context.Context, q request) (*multistore.QueryReport, error) {
	if d.srv != nil {
		return d.srv.DoAs(ctx, q.tenant, q.sql)
	}
	for {
		rep, err := d.sys.RunContext(ctx, q.sql)
		if !errors.Is(err, faults.ErrCrash) {
			return rep, err
		}
		if err := d.recover(); err != nil {
			return nil, err
		}
	}
}

// resolve runs one already-counted submission to completion.
func (d *driver) resolve(q request) {
	ctx := q.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	t0 := time.Now()
	rep, err := d.do(ctx, q)
	lat := time.Since(t0)
	if q.release != nil {
		q.release()
	}
	n := d.tally.record(q.tenant, lat, err)
	if d.onResult != nil {
		if err := d.onResult(n, q, rep, err); err != nil {
			d.tally.fail(err)
		}
	}
	if d.reorgEvery > 0 && n%d.reorgEvery == 0 {
		if err := d.srv.Reorganize(); err != nil {
			d.tally.fail(fmt.Errorf("online reorg: %w", err))
		}
	}
}

// finish closes the server and returns its counters, provided the run's
// verdict, the server's own accounting and the system's catalog
// invariants all hold. A sequential row has no server to check.
func (d *driver) finish() (serve.Metrics, error) {
	var m serve.Metrics
	if d.srv != nil {
		d.srv.Close()
		m = d.srv.Metrics()
	}
	if err := d.tally.check(); err != nil {
		return m, err
	}
	if err := m.Check(); err != nil {
		return m, err
	}
	if err := d.sys.CheckInvariants(); err != nil {
		return m, fmt.Errorf("invariants: %w", err)
	}
	return m, nil
}

// closedLoop configures a closed-loop run.
type closedLoop struct {
	clients int
	// count is the number of submissions per client; 0 runs until stop
	// closes.
	count int
	// next yields client's i-th request. rng is the client's own generator
	// (seeded from seed and the client index); the think-time jitter draws
	// from it too.
	next func(client, i int, rng *rand.Rand) request
	// think is the mean pause between a response and the client's next
	// submission, jittered ±50% per draw; 0 submits back to back.
	think time.Duration
	seed  int64
	// stop ends the run early when closed; nil never does.
	stop <-chan struct{}
}

// closed runs the loop to completion.
func (d *driver) closed(cl closedLoop) {
	var wg sync.WaitGroup
	for c := 0; c < cl.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cl.seed + int64(c)*7919))
			for i := 0; cl.count == 0 || i < cl.count; i++ {
				select {
				case <-cl.stop:
					return
				default:
				}
				d.tally.submit()
				d.resolve(cl.next(c, i, rng))
				if cl.think > 0 {
					pause := time.Duration(float64(cl.think) * (0.5 + rng.Float64()))
					select {
					case <-cl.stop:
						return
					case <-time.After(pause):
					}
				}
			}
		}(c)
	}
	wg.Wait()
}

// openLoop configures an open-loop run.
type openLoop struct {
	// rates is the offered load per tenant, in queries per second.
	rates map[string]float64
	dur   time.Duration
	// next yields tenant's i-th request.
	next func(tenant string, i int) request
}

// open offers the load for dur, then waits for every submission to
// resolve, so the tally counts everything the run offered.
func (d *driver) open(ol openLoop) {
	// Responses resolve in their own goroutines, bounded by sem.
	sem := make(chan struct{}, 512)
	var pacers, inflight sync.WaitGroup
	deadline := time.Now().Add(ol.dur)
	for tenant, rate := range ol.rates {
		if rate <= 0 {
			continue
		}
		pacers.Add(1)
		go func(tenant string, rate float64) {
			defer pacers.Done()
			interval := time.Duration(float64(time.Second) / rate)
			if interval > 5*time.Millisecond {
				interval = 5 * time.Millisecond
			}
			tick := time.NewTicker(interval)
			defer tick.Stop()
			start := time.Now()
			i := 0
			for time.Now().Before(deadline) {
				want := int(rate * time.Since(start).Seconds())
				for ; i < want; i++ {
					d.tally.submit()
					inflight.Add(1)
					sem <- struct{}{}
					go func(q request) {
						defer inflight.Done()
						defer func() { <-sem }()
						d.resolve(q)
					}(ol.next(tenant, i))
				}
				<-tick.C
			}
		}(tenant, rate)
	}
	pacers.Wait()
	inflight.Wait()
}

// side is side traffic: it runs on its own goroutine beside a loop until
// stop closes. A side that returns before then ends a closed loop early;
// an error it returns fails the run.
type side func(stop <-chan struct{}) error

// load runs one phase's loop with its side traffic, and returns once the
// loop and every side have ended.
func (d *driver) load(ph phase, sides []side) {
	stop, ended := make(chan struct{}), make(chan struct{})
	var once sync.Once
	var wg sync.WaitGroup
	for _, s := range sides {
		wg.Add(1)
		go func(s side) {
			defer wg.Done()
			if err := s(stop); err != nil {
				d.tally.fail(err)
			}
			once.Do(func() { close(ended) })
		}(s)
	}
	if ph.open.rates != nil {
		d.open(ph.open)
	} else {
		cl := ph.closed
		cl.stop = ended
		d.closed(cl)
	}
	close(stop)
	wg.Wait()
}

// storm appends records to the tweets log in a tight loop — the update
// path racing live queries through the backend's serialization.
func (d *driver) storm(stop <-chan struct{}) error {
	id := int64(10_000_000)
	for {
		select {
		case <-stop:
			return nil
		default:
		}
		lines := make([]string, 0, 4)
		for i := 0; i < 4; i++ {
			id++
			lines = append(lines, fmt.Sprintf(
				`{"tweet_id":%d,"user_id":1,"ts":1357000000,"text":"storm #etl","hashtag":"etl","lang":"en","retweets":1,"followers":10}`, id))
		}
		if _, err := d.sys.AppendToLog(data.TweetsLog, lines); err != nil {
			return fmt.Errorf("etl storm append: %w", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// horizon returns the side that ends an endurance loop once the system has
// completed h.reorgs reorganizations and the server h.queries queries, or
// once h.max has passed, which it reports through timedOut.
func (d *driver) horizon(h horizon, timedOut *bool) side {
	deadline := time.Now().Add(h.max)
	return func(stop <-chan struct{}) error {
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return nil
			case <-t.C:
			}
			if d.sys.Metrics().Reorgs >= h.reorgs && d.srv.Metrics().Completed >= h.queries {
				return nil
			}
			if time.Now().After(deadline) {
				*timedOut = true
				return nil
			}
		}
	}
}

// digestCheck pins answers across the rows of a mode: the first digest
// observed for a SQL text pins it, and every later one — from any client,
// from any pinning row — must equal it.
type digestCheck struct {
	want     sync.Map // SQL text -> digest
	diverged atomic.Bool
}

func (c *digestCheck) observe(sql string, digest uint64) {
	if want, seen := c.want.LoadOrStore(sql, digest); seen && want != digest {
		c.diverged.Store(true)
	}
}
