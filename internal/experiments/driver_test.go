package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"miso/internal/govern"
	"miso/internal/multistore"
	"miso/internal/serve"
)

// stubBackend answers every query at once: an empty report, or the error
// fail maps the SQL text to.
type stubBackend struct {
	fail func(sql string) error
}

func (b stubBackend) RunContext(_ context.Context, sql string) (*multistore.QueryReport, error) {
	if b.fail != nil {
		if err := b.fail(sql); err != nil {
			return nil, err
		}
	}
	return &multistore.QueryReport{HVOnly: true}, nil
}

func (b stubBackend) RunDegraded(ctx context.Context, sql string) (*multistore.QueryReport, error) {
	return b.RunContext(ctx, sql)
}

func (stubBackend) Reorganize() error { return nil }

// stubDriver serves a stub behind a queue deep enough that nothing sheds.
func stubDriver(t *testing.T, b stubBackend) *driver {
	t.Helper()
	srv := serve.NewServer(serve.Config{Workers: 2, QueueDepth: 4096}, b)
	t.Cleanup(srv.Close)
	return newDriver(srv, nil)
}

func checkTally(t *testing.T, tl *tally) {
	t.Helper()
	if tl.Submitted != tl.Served+tl.Shed+tl.Failed {
		t.Fatalf("submitted %d != served %d + shed %d + failed %d", tl.Submitted, tl.Served, tl.Shed, tl.Failed)
	}
}

func TestClassify(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want outcome
	}{
		{"nil", nil, outServed},
		{"shed", serve.ErrShed, outShed},
		{"quota shed", fmt.Errorf("tenant %q: %w (%w)", "t0", serve.ErrQuotaShed, serve.ErrShed), outShed},
		{"deadline", fmt.Errorf("query: %w", context.DeadlineExceeded), outGoverned},
		{"cancel", fmt.Errorf("query: %w", context.Canceled), outGoverned},
		{"mem limit", fmt.Errorf("query: %w", govern.ErrMemLimit), outGoverned},
		{"contained panic", fmt.Errorf("query: %w", govern.ErrInternal), outGoverned},
		{"other", errors.New("disk on fire"), outHard},
	} {
		if got := classify(tc.err); got != tc.want {
			t.Errorf("%s: classify = %d, want %d", tc.name, got, tc.want)
		}
	}
}

func TestClosedLoopSubmitsClientsTimesCount(t *testing.T) {
	d := stubDriver(t, stubBackend{})
	d.closed(closedLoop{clients: 5, count: 7, next: func(c, i int, _ *rand.Rand) request {
		return request{tenant: fmt.Sprintf("t%d", c), sql: fmt.Sprintf("q%d", i)}
	}})
	tl := d.tally
	checkTally(t, tl)
	if tl.Submitted != 35 || tl.Served != 35 || len(tl.latencies) != 35 {
		t.Fatalf("submitted %d served %d latencies %d, want 35 each", tl.Submitted, tl.Served, len(tl.latencies))
	}
	for c := 0; c < 5; c++ {
		if got := tl.TenantServed[fmt.Sprintf("t%d", c)]; got != 7 {
			t.Errorf("tenant t%d served %d, want 7", c, got)
		}
	}
	if m := d.srv.Metrics(); m.Submitted != 35 || m.Check() != nil {
		t.Fatalf("server saw %d submissions (check: %v)", m.Submitted, m.Check())
	}
}

func TestOpenLoopOffersRateTimesDuration(t *testing.T) {
	d := stubDriver(t, stubBackend{})
	const dur = 300 * time.Millisecond
	rates := map[string]float64{"a": 200, "b": 50, "idle": 0}
	d.open(openLoop{rates: rates, dur: dur, next: func(tenant string, i int) request {
		return request{tenant: tenant, sql: "q"}
	}})
	tl := d.tally
	checkTally(t, tl)
	// The pacer tops up to rate × elapsed on every tick of at most 5ms, so
	// it never offers more than the target and, on an idle machine, trails
	// it by at most one tick at the deadline. The lower bound leaves slack
	// for a test box that starves the pacer over the last ticks.
	for tenant, rate := range rates {
		want := rate * dur.Seconds()
		got := float64(tl.TenantServed[tenant])
		if got > want || got < 0.8*want-1 {
			t.Errorf("tenant %s: offered %v, want at most %v and within a few ticks of it", tenant, got, want)
		}
	}
}

func TestThinkTimeAndStopEndARun(t *testing.T) {
	d := stubDriver(t, stubBackend{})
	stop := make(chan struct{})
	time.AfterFunc(150*time.Millisecond, func() { close(stop) })
	start := time.Now()
	// No count: only stop ends it. 20ms mean think time jittered ±50%
	// bounds each client to 150/10 = 15 submissions plus the first.
	d.closed(closedLoop{clients: 3, think: 20 * time.Millisecond, seed: 1, stop: stop,
		next: func(int, int, *rand.Rand) request { return request{sql: "q"} }})
	if el := time.Since(start); el < 150*time.Millisecond || el > 2*time.Second {
		t.Fatalf("run took %s, want just over the 150ms stop", el)
	}
	tl := d.tally
	checkTally(t, tl)
	if tl.Served < 3 || tl.Served > 3*16 {
		t.Fatalf("served %d, want between 3 and %d (think time must pace the clients)", tl.Served, 3*16)
	}
}

func TestFirstHardErrorIsReturned(t *testing.T) {
	d := stubDriver(t, stubBackend{fail: func(sql string) error {
		switch {
		case strings.HasPrefix(sql, "hard"):
			return errors.New(sql)
		case sql == "panic":
			return fmt.Errorf("contained: %w", govern.ErrInternal)
		}
		return nil
	}})
	sqls := []string{"ok", "panic", "hard-1", "ok", "hard-2"}
	var hooked []int
	d.onResult = func(n int, _ request, _ *multistore.QueryReport, _ error) error {
		hooked = append(hooked, n) // one client: no concurrent calls
		if n == len(sqls) {
			return errors.New("hook error after the hard ones")
		}
		return nil
	}
	d.closed(closedLoop{clients: 1, count: len(sqls), next: func(_, i int, _ *rand.Rand) request {
		return request{tenant: "t", sql: sqls[i]}
	}})
	tl := d.tally
	checkTally(t, tl)
	if tl.Served != 2 || tl.Failed != 3 {
		t.Fatalf("served %d failed %d, want 2 and 3", tl.Served, tl.Failed)
	}
	if err := tl.check(); err == nil || !strings.Contains(err.Error(), "hard-1") {
		t.Fatalf("first hard error = %v, want the one naming hard-1", err)
	}
	if fmt.Sprint(hooked) != "[1 2 3 4 5]" {
		t.Fatalf("onResult saw ordinals %v, want 1..5", hooked)
	}
}
