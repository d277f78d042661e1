// The load driver every serving harness shares. One driver submits
// requests to one serve.Server and books each outcome in one tally through
// one classifier; a harness is a configuration of it. There are two loop
// shapes. Closed loop: N clients, each holding at most one query in flight,
// optionally pausing a jittered think time between a response and the next
// submission, until a per-client count is reached or a stop channel closes.
// Open loop: every tenant offers its rate for a duration without waiting
// for responses, paced by target count (want = rate × elapsed) rather than
// per tick, so the offered load stays honest when the scheduler starves the
// pacer and its ticker coalesces — a saturated 1-CPU box must still see
// true overload.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

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

// outcome is what a submission came to, as the harnesses count it.
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

// classify maps what serve.Server returned to an outcome.
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

// tally is what one driver run counted. Its fields are read once the run
// has returned.
type tally struct {
	mu sync.Mutex
	// submitted counts dispatches; served + shed + failed counts
	// resolutions, and equals submitted once the run has returned.
	submitted, served, shed, failed int
	tenantServed, tenantShed        map[string]int
	// latencies holds the wall-clock latency of every served query.
	latencies []time.Duration
	// hardErr is the first outHard error (or onResult error) seen.
	hardErr error
}

func (t *tally) submit() {
	t.mu.Lock()
	t.submitted++
	t.mu.Unlock()
}

// record books one resolved query and returns its completion ordinal
// (1-based, across all clients).
func (t *tally) record(tenant string, lat time.Duration, err error) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	switch classify(err) {
	case outServed:
		t.served++
		t.tenantServed[tenant]++
		t.latencies = append(t.latencies, lat)
	case outShed:
		t.shed++
		t.tenantShed[tenant]++
	case outGoverned:
		t.failed++
	case outHard:
		t.failed++
		if t.hardErr == nil {
			t.hardErr = fmt.Errorf("tenant %q: %w", tenant, err)
		}
	}
	return t.served + t.shed + t.failed
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
	if t.hardErr == nil && t.submitted != t.served+t.shed+t.failed {
		return fmt.Errorf("tally: %d submitted != %d served + %d shed + %d failed", t.submitted, t.served, t.shed, t.failed)
	}
	return t.hardErr
}

// percentile reads the served-latency distribution by govern.Percentile's
// nearest-rank rule, the one every gate in the tree is calibrated to.
func (t *tally) percentile(p int) time.Duration { return govern.Percentile(t.latencies, p) }

// driver submits requests to srv and books what comes back. A harness
// that makes several runs against one server gives each a fresh tally.
type driver struct {
	srv   *serve.Server
	tally *tally
	// onResult, when set, sees every resolved query outside the tally
	// lock: its completion ordinal, the request, and what the server
	// returned. An error it returns is booked as a hard error.
	onResult func(n int, q request, rep *multistore.QueryReport, err error) error
}

func newTally() *tally {
	return &tally{tenantServed: map[string]int{}, tenantShed: map[string]int{}}
}

func newDriver(srv *serve.Server) *driver { return &driver{srv: srv, tally: newTally()} }

// resolve runs one already-counted submission to completion.
func (d *driver) resolve(q request) {
	ctx := q.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	t0 := time.Now()
	rep, err := d.srv.DoAs(ctx, q.tenant, q.sql)
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
}

// finish closes the server and returns its counters, provided the run's
// verdict, the server's own accounting and the backend's catalog
// invariants all hold.
func (d *driver) finish(sys *multistore.System) (serve.Metrics, error) {
	d.srv.Close()
	m := d.srv.Metrics()
	if err := d.tally.check(); err != nil {
		return m, err
	}
	if err := m.Check(); err != nil {
		return m, err
	}
	if err := sys.CheckInvariants(); err != nil {
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

// digestCheck is the onResult helper of the runs that compare answers: the
// first digest observed for a SQL text pins it, and every later one —
// from any client, from either of two systems — must equal it.
type digestCheck struct {
	mu    sync.Mutex
	want  map[string]uint64
	match bool
}

func newDigestCheck() *digestCheck { return &digestCheck{want: map[string]uint64{}, match: true} }

func (c *digestCheck) observe(sql string, digest uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if want, ok := c.want[sql]; !ok {
		c.want[sql] = digest
	} else if want != digest {
		c.match = false
	}
}
