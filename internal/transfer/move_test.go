package transfer

import (
	"context"
	"errors"
	"testing"

	"miso/internal/faults"
)

func TestMoveNoInjectorMatchesCost(t *testing.T) {
	for _, bytes := range []int64{0, 1 << 20, 3 << 30} {
		res, err := MoveContext(context.Background(), bytes, KindWorkingSet, nil, faults.RetryPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Retries != 0 || res.RecoverySeconds != 0 {
			t.Fatalf("fault-free move not clean: %+v", res)
		}
		if res.Breakdown != Cost(bytes) {
			t.Errorf("breakdown %+v != Cost %+v", res.Breakdown, Cost(bytes))
		}
		back, err := MoveContext(context.Background(), bytes, KindToHV, nil, faults.RetryPolicy{})
		if err != nil {
			t.Fatal(err)
		}
		if back.Breakdown != CostToHV(bytes) {
			t.Errorf("reverse breakdown %+v != CostToHV %+v", back.Breakdown, CostToHV(bytes))
		}
	}
}

func TestMoveDeterministic(t *testing.T) {
	run := func() []MoveResult {
		inj := faults.NewInjector(faults.Uniform(0.3), 11)
		var out []MoveResult
		for i := 0; i < 20; i++ {
			res, _ := MoveContext(context.Background(), 1<<30, KindPermanent, inj, faults.DefaultRetry())
			out = append(out, *res)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("move %d differs across identical seeded runs:\n%+v\n%+v", i, a[i], b[i])
		}
	}
}

func TestMoveSurvivesFailuresWithRecovery(t *testing.T) {
	inj := faults.NewInjector(faults.Uniform(0.4), 7)
	var completed, aborted int
	var sawRecovery bool
	for i := 0; i < 50; i++ {
		res, err := MoveContext(context.Background(), 2<<30, KindWorkingSet, inj, faults.DefaultRetry())
		if err != nil {
			aborted++
			if !errors.Is(err, faults.ErrExhausted) {
				t.Fatalf("abort error not ErrExhausted: %v", err)
			}
			var f *faults.Fault
			if !errors.As(err, &f) {
				t.Fatalf("abort error carries no *Fault: %v", err)
			}
			continue
		}
		completed++
		// A completed move always delivers the full fault-free breakdown;
		// failures only add recovery on top.
		if res.Breakdown != Cost(2<<30) {
			t.Fatalf("completed move breakdown %+v != ideal", res.Breakdown)
		}
		if res.Retries > 0 {
			sawRecovery = true
			if res.RecoverySeconds <= 0 {
				t.Error("retries without recovery time")
			}
		}
	}
	if completed == 0 {
		t.Error("no move completed at 40% failure rate")
	}
	if !sawRecovery {
		t.Error("no completed move recorded a survived retry")
	}
}

func TestMoveBackoffIsCharged(t *testing.T) {
	// Rate 1 at the dump site only: every dump attempt fails, the move
	// aborts after MaxAttempts with every backoff charged.
	inj := faults.NewInjector(faults.Profile{TransferDump: 1}, 3)
	retry := faults.RetryPolicy{MaxAttempts: 3, BaseBackoff: 2, BackoffFactor: 2, MaxBackoff: 100}
	res, err := MoveContext(context.Background(), 1<<30, KindWorkingSet, inj, retry)
	if err == nil {
		t.Fatal("move completed under certain dump failure")
	}
	if res.Retries != 3 {
		t.Errorf("retries = %d, want 3", res.Retries)
	}
	if want := 2.0 + 4.0 + 8.0; res.RecoverySeconds != want {
		t.Errorf("recovery = %v, want %v (sum of backoffs)", res.RecoverySeconds, want)
	}
}

func TestMoveLoadSiteDependsOnKind(t *testing.T) {
	// Working-set moves must not draw the permanent DW-load site.
	inj := faults.NewInjector(faults.Profile{DWLoad: 1}, 5)
	if _, err := MoveContext(context.Background(), 1<<30, KindWorkingSet, inj, faults.DefaultRetry()); err != nil {
		t.Errorf("working-set move hit the permanent-load site: %v", err)
	}
	// Permanent moves must not draw the temp-load site.
	inj = faults.NewInjector(faults.Profile{TransferLoad: 1}, 5)
	if _, err := MoveContext(context.Background(), 1<<30, KindPermanent, inj, faults.DefaultRetry()); err != nil {
		t.Errorf("permanent move hit the temp-load site: %v", err)
	}
	// Reverse moves have no load phase at all.
	inj = faults.NewInjector(faults.Profile{TransferLoad: 1, DWLoad: 1}, 5)
	if _, err := MoveContext(context.Background(), 1<<30, KindToHV, inj, faults.DefaultRetry()); err != nil {
		t.Errorf("reverse move drew a load site: %v", err)
	}
}
