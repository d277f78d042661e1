package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestBreakerHalfOpenContention hammers a cooled-down breaker from many
// goroutines: exactly one caller may claim the half-open probe slot, and
// the open→half-open transition must happen exactly once — run with -race
// this is the double-probe regression.
func TestBreakerHalfOpenContention(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	b := newBreaker(clk.Now)
	trip(b)
	if st, trips, _ := b.snapshot(); st != BreakerOpen || trips != 1 {
		t.Fatalf("expected open after the threshold's failures, got %v with %d trips", st, trips)
	}
	clk.Advance(DefaultBreakerCooldown) // cooled down: next allow half-opens

	const contenders = 64
	var probes, normals atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < contenders; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			normal, probe := b.allow()
			if probe {
				probes.Add(1)
			}
			if normal {
				normals.Add(1)
			}
			if normal != probe {
				t.Errorf("half-open allow() returned normal=%v probe=%v; they must agree", normal, probe)
			}
		}()
	}
	wg.Wait()
	if got := probes.Load(); got != 1 {
		t.Fatalf("%d contenders claimed the probe slot, want exactly 1", got)
	}
	if got := normals.Load(); got != 1 {
		t.Fatalf("%d contenders took the normal path, want exactly 1 (the probe)", got)
	}
	if st, _, p := b.snapshot(); st != BreakerHalfOpen || p != 1 {
		t.Fatalf("expected half-open with 1 probe admitted, got %v with %d", st, p)
	}

	// The probe's verdict resolves the contention exactly once: success
	// closes, and a fresh storm of callers all pass without probing.
	b.recordSuccess(true)
	if st, trips, _ := b.snapshot(); st != BreakerClosed || trips != 1 {
		t.Fatalf("expected closed after probe success, got %v with %d trips", st, trips)
	}
	for i := 0; i < 8; i++ {
		if normal, probe := b.allow(); !normal || probe {
			t.Fatalf("closed breaker returned normal=%v probe=%v", normal, probe)
		}
	}

	// A failed probe re-opens exactly once even after the contention round.
	trip(b)
	clk.Advance(DefaultBreakerCooldown)
	if _, probe := b.allow(); !probe {
		t.Fatalf("expected to claim the probe after second cooldown")
	}
	b.recordFailure(true)
	if st, trips, _ := b.snapshot(); st != BreakerOpen || trips != 3 {
		t.Fatalf("expected re-opened breaker after failed probe (trips: initial, re-trip, probe), got %v with %d trips", st, trips)
	}
}

// trip records the threshold's consecutive DW exhaustions on a closed
// breaker, which opens it.
func trip(b *breaker) {
	for i := 0; i < DefaultBreakerThreshold; i++ {
		b.recordFailure(false)
	}
}

// TestBreakerProbeRelease: a probe that never reaches a DW verdict
// returns its slot, so the next caller can probe instead of the breaker
// wedging half-open forever.
func TestBreakerProbeRelease(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	b := newBreaker(clk.Now)
	trip(b)
	clk.Advance(DefaultBreakerCooldown)
	if _, probe := b.allow(); !probe {
		t.Fatal("expected first caller to claim the probe")
	}
	if normal, probe := b.allow(); normal || probe {
		t.Fatal("second caller must stay degraded while the probe is in flight")
	}
	b.releaseProbe(true)
	if _, probe := b.allow(); !probe {
		t.Fatal("released probe slot must be claimable again")
	}
}

// TestQuotaWeightedFairness drives the token buckets with a fake clock:
// every tenant weighs the same, so tokens refill in equal shares of the
// rate, a hot tenant drains only its own bucket, and a cold tenant's
// admission is untouched by the hot tenant's storm.
func TestQuotaWeightedFairness(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	q := newQuotas(QuotaConfig{RatePerSec: 8, Burst: 2}, clk.Now)

	// First sight creates full buckets: each tenant gets its burst, then
	// sheds with the clock frozen (no refill).
	for _, tenant := range []string{"hot", "cold"} {
		for i := 0; i < 2; i++ {
			if !q.admit(tenant) {
				t.Fatalf("%s admission %d rejected within burst", tenant, i)
			}
		}
		if q.admit(tenant) {
			t.Fatalf("%s admitted past its burst with a frozen clock", tenant)
		}
	}

	// Refill is an equal share: over 0.25s at 8/s across two tenants,
	// each accrues exactly 1 token.
	clk.Advance(250 * time.Millisecond)
	hot, cold := 0, 0
	for q.admit("hot") {
		hot++
	}
	for q.admit("cold") {
		cold++
	}
	if hot != 1 || cold != 1 {
		t.Fatalf("after 0.25s refill: hot admitted %d, cold %d (want 1 each)", hot, cold)
	}

	// Isolation: a hot tenant hammering its empty bucket doesn't consume
	// anything the cold tenant is owed.
	for i := 0; i < 1000; i++ {
		q.admit("hot")
	}
	clk.Advance(250 * time.Millisecond)
	if !q.admit("cold") {
		t.Fatal("cold tenant starved by the hot tenant's shed storm")
	}
	if q.admit("cold") {
		t.Fatal("cold tenant admitted past its share: the hot tenant's tokens leaked")
	}
}

// TestQuotaShedsAreTenantScoped: with quotas on, a tenant whose bucket is
// empty sheds with ErrQuotaShed (which also matches ErrShed), the serve
// metrics count it under both Sheds and QuotaSheds, and other tenants
// keep being served.
func TestQuotaShedsAreTenantScoped(t *testing.T) {
	srv := NewServer(Config{
		Workers: 2, QueueDepth: 8,
		Quota: QuotaConfig{RatePerSec: 0.001, Burst: 1},
	}, &stubBackend{})
	defer srv.Close()

	if _, err := srv.DoAs(context.Background(), "hot", "q"); err != nil {
		t.Fatalf("first query within burst: %v", err)
	}
	_, err := srv.DoAs(context.Background(), "hot", "q")
	if !errors.Is(err, ErrQuotaShed) {
		t.Fatalf("second query should shed on quota, got %v", err)
	}
	if !errors.Is(err, ErrShed) {
		t.Fatalf("a quota shed must also match ErrShed, got %v", err)
	}
	if _, err := srv.DoAs(context.Background(), "cold", "q"); err != nil {
		t.Fatalf("cold tenant must be unaffected: %v", err)
	}
	m := srv.Metrics()
	if m.QuotaSheds != 1 || m.Sheds != 1 {
		t.Fatalf("expected 1 quota shed counted as a shed, got %+v", m)
	}
	if err := m.Check(); err != nil {
		t.Fatal(err)
	}
	for _, ts := range srv.TenantStats() {
		switch ts.Tenant {
		case "hot":
			if ts.Served != 1 || ts.Shed != 1 {
				t.Fatalf("hot tenant ledger off: %+v", ts)
			}
		case "cold":
			if ts.Served != 1 || ts.Shed != 0 {
				t.Fatalf("cold tenant ledger off: %+v", ts)
			}
		}
	}
}
