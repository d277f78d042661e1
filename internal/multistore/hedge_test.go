package multistore_test

import (
	"testing"
	"time"

	"miso/internal/data"
	"miso/internal/faults"
	"miso/internal/multistore"
	"miso/internal/storage"
	"miso/internal/workload"
)

// runHedgeWorkload replays the full 32-query workload on an MS-MISO
// system under a DW-side fault storm that forces retry-exhaustion
// fallbacks, with or without hedged DW execution, and returns the durable
// digest, per-query result checksums, and the final metrics. The hedge
// threshold is forced to fire immediately so every split plan races a
// shadow.
func runHedgeWorkload(t *testing.T, hedge bool) (uint64, []uint64, multistore.Metrics) {
	t.Helper()
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	cfg := multistore.DefaultConfig(multistore.VariantMSMiso)
	cfg.SetBudgets(cat, 2.0, 10<<30)
	// A high DW-query fault rate with a short retry policy exhausts a
	// fraction of split plans, exercising the fallback path both ways.
	cfg.Faults = faults.Profile{}.With(faults.SiteDWQuery, 0.5)
	cfg.FaultSeed = 11
	cfg.Retry = faults.RetryPolicy{MaxAttempts: 2, BaseBackoff: 1, BackoffFactor: 2, MaxBackoff: 4}
	if hedge {
		cfg.Hedge = multistore.HedgeConfig{Enabled: true, Multiplier: 0.001, MinDelay: time.Nanosecond}
	}
	sys := multistore.New(cfg, cat)
	if err := sys.ProvideFutureWorkload(workload.SQLs()); err != nil {
		t.Fatalf("future workload: %v", err)
	}
	var sums []uint64
	for i, sql := range workload.SQLs() {
		rep, err := sys.Run(sql)
		if err != nil {
			t.Fatalf("hedge=%v query %d: %v", hedge, i, err)
		}
		sums = append(sums, storage.ChecksumTable(rep.Result))
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatalf("hedge=%v invariants: %v", hedge, err)
	}
	return sys.StateDigest(), sums, sys.Metrics()
}

// TestHedgeDigestIdentity is the hedged-request determinism regression:
// the same fault-storm workload must produce byte-identical query results
// and byte-identical durable state whether hedging is on (every DW phase
// races an HV shadow, winners committed in place of serial fallbacks) or
// off. Run with -race, this also exercises the shadow's concurrency.
func TestHedgeDigestIdentity(t *testing.T) {
	offDigest, offSums, offM := runHedgeWorkload(t, false)
	onDigest, onSums, onM := runHedgeWorkload(t, true)

	if offM.Fallbacks == 0 {
		t.Fatalf("fault storm produced no fallbacks; the test exercises nothing")
	}
	if offM.Fallbacks != onM.Fallbacks {
		t.Fatalf("fallbacks diverged: off %d, on %d", offM.Fallbacks, onM.Fallbacks)
	}
	for i := range offSums {
		if offSums[i] != onSums[i] {
			t.Errorf("query %d result checksum diverged: off %x, on %x", i, offSums[i], onSums[i])
		}
	}
	if offDigest != onDigest {
		t.Fatalf("durable-state digest diverged: hedge off %x, hedge on %x", offDigest, onDigest)
	}
	// The hedge plane must actually have engaged (threshold fires
	// immediately), and its counters must stay out of the digest.
	if onM.Hedges == 0 {
		t.Fatalf("hedging enabled with an always-fire threshold but no hedges armed")
	}
	t.Logf("hedges %d, wins %d, canceled %d over %d fallbacks",
		onM.Hedges, onM.HedgeWins, onM.HedgesCanceled, onM.Fallbacks)
}
