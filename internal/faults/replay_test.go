package faults

import (
	"context"
	"errors"
	"math"
	"testing"
)

// TestReplayMatchesTheLoopsItReplaced pins Replay against the three copies
// of the recovery loop it replaced — hv.recoverPhase, multistore's
// simulateDWQuery and the transactional load phase of transfer.MoveContext.
// For each scripted draw sequence (a rate and a seed) the retries, the bits
// of the recovery seconds and the error class below are what all three
// returned at the commit before the fold (they agreed with each other on
// every row); they were recorded there, not computed by Replay.
func TestReplayMatchesTheLoopsItReplaced(t *testing.T) {
	def := DefaultRetry()
	tight := RetryPolicy{MaxAttempts: 4, BaseBackoff: 1, BackoffFactor: 2, MaxBackoff: 8}
	once := RetryPolicy{MaxAttempts: 1, BaseBackoff: 5, BackoffFactor: 2, MaxBackoff: 60}
	for _, c := range []struct {
		name    string
		rate    float64
		seed    int64
		secBits uint64 // the operation's simulated seconds
		policy  RetryPolicy
		cancel  bool // the context is already canceled

		retries int
		recBits uint64
		is      error // nil = the operation eventually succeeded
	}{
		{name: "four failures, then success", rate: 0.6, seed: 9, secBits: 0x4013c0c20f598f3d, policy: def,
			retries: 4, recBits: 0x405578d2fc41dde0},
		{name: "three failures under a tight policy", rate: 0.7, seed: 4, secBits: 0x3f9eb864b5e224a3, policy: tight,
			retries: 3, recBits: 0x401c2e99be001d5b},
		{name: "first draw succeeds", rate: 0.5, seed: 1, secBits: 0x3fd9999ac63f69f8, policy: def},
		{name: "policy exhausted", rate: 1, seed: 42, secBits: 0x3ff547ae5fa4555f, policy: tight,
			retries: 4, recBits: 0x403062efb0f08b24, is: ErrExhausted},
		{name: "dead context", rate: 1, seed: 42, secBits: 0x3ff547ae5fa4555f, policy: def, cancel: true,
			retries: 1, recBits: 0x401459e32da9ce26, is: context.Canceled},
		// The give-up order: policy, then deadline.
		{name: "policy before deadline", rate: 1, seed: 5, secBits: 0x3fb47ae5fa4555f5, policy: once, cancel: true,
			retries: 1, recBits: 0x40142a913e5afc3f, is: ErrExhausted},
		{name: "deadline before another attempt", rate: 1, seed: 5, secBits: 0x3fb47ae5fa4555f5, policy: def, cancel: true,
			retries: 1, recBits: 0x40142a913e5afc3f, is: context.Canceled},
	} {
		ctx := context.Background()
		if c.cancel {
			var cancel context.CancelFunc
			ctx, cancel = context.WithCancel(ctx)
			cancel()
		}
		inj := NewInjector(Profile{}.With(SiteDWQuery, c.rate), c.seed)

		var retries int
		var recovery float64
		err := c.policy.Replay(ctx, inj, SiteDWQuery, "dw query", math.Float64frombits(c.secBits), &retries, &recovery)
		if retries != c.retries || math.Float64bits(recovery) != c.recBits {
			t.Errorf("%s: %d retries, recovery %#x; the replaced loops paid %d and %#x",
				c.name, retries, math.Float64bits(recovery), c.retries, c.recBits)
		}
		switch {
		case c.is == nil && err != nil:
			t.Errorf("%s: %v, want success", c.name, err)
		case c.is != nil && !errors.Is(err, c.is):
			t.Errorf("%s: error %v is not %v", c.name, err, c.is)
		}
		var f *Fault
		if c.is != nil && c.is != context.Canceled && (!errors.As(err, &f) || f.Site != SiteDWQuery || f.Attempt != c.retries) {
			t.Errorf("%s: error %v does not carry the fatal fault", c.name, err)
		}
	}
}

// TestReplayAddsToRunningSums: an HV job replays a stage and then its HDFS
// write into the same two accumulators, so the second phase's charges are
// added to the first's one failure at a time — the order every recorded
// simulated second was summed in. Recorded from hv.recoverPhase, two calls.
func TestReplayAddsToRunningSums(t *testing.T) {
	inj := NewInjector(Profile{HVStage: 0.6}, 4)
	sec := math.Float64frombits(0x4013c0c20f598f3d)
	var retries int
	var recovery float64
	for _, s := range []float64{sec, sec * 3} {
		if err := DefaultRetry().Replay(context.Background(), inj, SiteHVStage, "hv job", s, &retries, &recovery); err != nil {
			t.Fatal(err)
		}
	}
	if retries != 4 || math.Float64bits(recovery) != 0x404ead207d4fea42 {
		t.Fatalf("%d retries, recovery %#x; want 4 and 0x404ead207d4fea42", retries, math.Float64bits(recovery))
	}
}
