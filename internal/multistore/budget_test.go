package multistore_test

import (
	"errors"
	"testing"

	"miso/internal/data"
	"miso/internal/faults"
	"miso/internal/multistore"
	"miso/internal/workload"
)

// runBudgetWorkload replays the workload on an MS-MISO system under an
// HV-side fault storm with the given per-query retry budget (0 =
// unlimited), returning the final metrics. Every query must still
// complete: an exhausted budget falls back, it never fails the query.
func runBudgetWorkload(t *testing.T, budget int) multistore.Metrics {
	t.Helper()
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	cfg := multistore.DefaultConfig(multistore.VariantMSMiso)
	cfg.SetBudgets(cat, 2.0, 10<<30)
	// DW-side faults only: DW exhaustion falls back to HV, so the budget
	// changes how much retrying precedes the fallback, never whether the
	// query completes. (HV-stage exhaustion would fail the query outright —
	// there is no store below HV to fall back to.)
	cfg.Faults = faults.Profile{}.With(faults.SiteDWQuery, 0.5)
	cfg.FaultSeed = 11
	cfg.Retry = faults.RetryPolicy{MaxAttempts: 4, BaseBackoff: 1, BackoffFactor: 2, MaxBackoff: 8}
	cfg.RetryBudget = budget
	sys := multistore.New(cfg, cat)
	if err := sys.ProvideFutureWorkload(workload.SQLs()); err != nil {
		t.Fatalf("future workload: %v", err)
	}
	for i, sql := range workload.SQLs() {
		if _, err := sys.Run(sql); err != nil {
			t.Fatalf("budget=%d query %d: %v", budget, i, err)
		}
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatalf("budget=%d invariants: %v", budget, err)
	}
	return sys.Metrics()
}

// TestRetryBudgetCapsRecovery: under the same fault storm, a tight
// per-query retry budget pays strictly fewer retries than unlimited
// recovery while every query still completes (budget exhaustion degrades
// to the fallback path, never to a user-visible failure).
func TestRetryBudgetCapsRecovery(t *testing.T) {
	unlimited := runBudgetWorkload(t, 0)
	capped := runBudgetWorkload(t, 1)

	if unlimited.Retries == 0 {
		t.Fatal("fault storm produced no retries; the test exercises nothing")
	}
	if capped.Retries >= unlimited.Retries {
		t.Fatalf("budget of 1 paid %d retries, unlimited paid %d — the budget capped nothing",
			capped.Retries, unlimited.Retries)
	}
	// The budget converts retry time into earlier HV fallbacks: queries
	// that would have retried their way through DW give up sooner, so the
	// fallback count can only grow.
	if capped.Fallbacks < unlimited.Fallbacks {
		t.Fatalf("budget of 1 fell back %d times, unlimited %d — an exhausted budget must degrade, not retry",
			capped.Fallbacks, unlimited.Fallbacks)
	}
	t.Logf("retries: unlimited %d, budget-1 %d; recovery: %.1fs vs %.1fs; fallbacks: %d vs %d",
		unlimited.Retries, capped.Retries, unlimited.Recovery, capped.Recovery,
		unlimited.Fallbacks, capped.Fallbacks)
}

// TestRetryBudgetCoversETLExtraction: DW-ONLY's ETL is one phase under one
// retry budget, and its HV extraction stages draw on that budget like its
// loads do. Under a storm in which every HV stage fails, a budget of 1 stops
// the ETL at the second failure with ErrBudget; the extraction once ran
// under a background context and burned its whole per-phase allowance.
func TestRetryBudgetCoversETLExtraction(t *testing.T) {
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	cfg := multistore.DefaultConfig(multistore.VariantDWOnly)
	cfg.SetBudgets(cat, 2.0, 10<<30)
	cfg.Faults = faults.Profile{}.With(faults.SiteHVStage, 1)
	cfg.RetryBudget = 1
	sys := multistore.New(cfg, cat)
	if err := sys.ProvideFutureWorkload(workload.SQLs()); err != nil {
		t.Fatalf("future workload: %v", err)
	}
	_, err = sys.Run(workload.SQLs()[0])
	if !errors.Is(err, faults.ErrBudget) {
		t.Fatalf("ETL under an HV-stage storm with a retry budget of 1: %v, want an error wrapping faults.ErrBudget", err)
	}
	var f *faults.Fault
	if !errors.As(err, &f) || f.Site != faults.SiteHVStage || f.Attempt != 2 {
		t.Fatalf("the budget should refuse the HV stage's second failure, got %v", err)
	}
}
