package multistore_test

import (
	"context"
	"sync"
	"testing"

	"miso/internal/data"
	"miso/internal/faults"
	"miso/internal/logical"
	"miso/internal/multistore"
	"miso/internal/storage"
	"miso/internal/workload"
)

// TestForeignComputeLeavesTheRunningQuerysLedgerAlone: hv.BeginExecute is
// callable without the system lock (the benchmark's probes call it so). A
// foreign compute running beside a governed query must neither race on
// that query's memory ledger nor reserve bytes against it: the
// ledger travels in the query's own context, so a compute under any other
// context is unmetered, so every query's ledger is empty once RunContext
// has returned. Meaningful under -race.
func TestForeignComputeLeavesTheRunningQuerysLedgerAlone(t *testing.T) {
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	cfg := multistore.DefaultConfig(multistore.VariantMSMiso)
	cfg.SetBudgets(cat, 2.0, 10<<30)
	cfg.MemLimitBytes = 1 << 40
	sys := multistore.New(cfg, cat)
	ledgers := multistore.KeepLedgers(sys)
	sqls := workload.SQLs()
	plan, err := logical.NewBuilder(cat).BuildSQL(sqls[0])
	if err != nil {
		t.Fatalf("build: %v", err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := sys.HV().BeginExecute(context.Background(), plan); err != nil {
				t.Errorf("foreign compute: %v", err)
				return
			}
		}
	}()
	for i, sql := range sqls[:8] {
		if _, err := sys.RunContext(context.Background(), sql); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		kept := ledgers()
		if len(kept) != i+1 {
			t.Fatalf("query %d: %d ledgers kept, want %d", i, len(kept), i+1)
		}
		for j, led := range kept {
			if led == nil {
				t.Fatalf("query %d ran without a ledger under a memory limit", j)
			}
			if used := led.Used(); used != 0 {
				t.Fatalf("after query %d, query %d's ledger holds %d bytes", i, j, used)
			}
		}
	}
	close(stop)
	wg.Wait()
	charged := false
	for _, led := range ledgers() {
		charged = charged || led.HighWater() > 0
	}
	if !charged {
		t.Fatal("no query charged its ledger; the test checks no release")
	}
}

// TestBuildErrorSurfacesAfterTheRotDraw pins the prologue's draw order for
// a query that never gets a plan: invalid SQL still passes the per-operation
// bit-rot draw before its build error surfaces, so it moves the injector
// exactly as far as a valid query's prologue does. The two constants were
// recorded from the commit before the query path was folded into one.
func TestBuildErrorSurfacesAfterTheRotDraw(t *testing.T) {
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	cfg := multistore.DefaultConfig(multistore.VariantMSMiso)
	cfg.SetBudgets(cat, 2.0, 10<<30)
	cfg.Faults = faults.Profile{ViewRot: 0.5}
	cfg.FaultSeed = 42
	sys := multistore.New(cfg, cat)
	sqls := workload.SQLs()
	for i, sql := range sqls[:4] {
		if _, err := sys.Run(sql); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
	before := sys.FaultInjector().TotalInjected()
	for i := 0; i < 3; i++ {
		if _, err := sys.Run("SELECT FROM WHERE"); err == nil {
			t.Fatal("invalid SQL ran")
		}
	}
	if got := sys.FaultInjector().TotalInjected() - before; got != rotDrawsOfThreeBadQueries {
		t.Errorf("three invalid queries injected %d rot faults, want %d", got, rotDrawsOfThreeBadQueries)
	}
	if _, err := sys.Run(sqls[4]); err != nil {
		t.Fatalf("query after the invalid ones: %v", err)
	}
	if got := sys.StateDigest(); got != digestAfterBadQueries {
		t.Errorf("state digest after the next query = %#x, want %#x", got, uint64(digestAfterBadQueries))
	}
}

const (
	rotDrawsOfThreeBadQueries = 1
	digestAfterBadQueries     = 0x7c0f4e6be94437a1
)

// TestMSLruAnswersAreTheSameWithReuse: MS-LRU runs through the one
// split-plan executor, so the cut-level subresult cache reaches it. With
// the reuse plane on — the workload asked twice, so full-query hits and
// cached cuts both occur — every answer must equal the reuse-off run's.
func TestMSLruAnswersAreTheSameWithReuse(t *testing.T) {
	answers := func(reuse bool) ([]uint64, multistore.Metrics) {
		cat, err := data.Generate(data.SmallConfig())
		if err != nil {
			t.Fatalf("generate: %v", err)
		}
		cfg := multistore.DefaultConfig(multistore.VariantMSLru)
		cfg.SetBudgets(cat, 2.0, 10<<30)
		cfg.Reuse.Enabled = reuse
		sys := multistore.New(cfg, cat)
		var sums []uint64
		for pass := 0; pass < 2; pass++ {
			for i, sql := range workload.SQLs() {
				rep, err := sys.Run(sql)
				if err != nil {
					t.Fatalf("reuse=%v pass %d query %d: %v", reuse, pass, i, err)
				}
				sums = append(sums, storage.ChecksumData(rep.Result))
			}
		}
		if err := sys.CheckInvariants(); err != nil {
			t.Fatalf("reuse=%v invariants: %v", reuse, err)
		}
		return sums, sys.Metrics()
	}
	cold, _ := answers(false)
	warm, m := answers(true)
	for i := range cold {
		if cold[i] != warm[i] {
			t.Errorf("answer %d: reuse off %016x, reuse on %016x", i, cold[i], warm[i])
		}
	}
	if m.CacheHits == 0 {
		t.Error("reuse on, workload asked twice, and no cache hit")
	}
	t.Logf("cache hits %d, misses %d, subplan hits %d", m.CacheHits, m.CacheMisses, m.SubplanHits)
}
