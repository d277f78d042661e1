package serve

import (
	"context"
	"errors"
	"testing"
	"time"
)

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
