package multistore_test

import (
	"context"
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"miso/internal/data"
	"miso/internal/multistore"
	"miso/internal/storage"
	"miso/internal/workload"
)

// TestPlaneMatrixMatchesGolden replays the full 32-query evolving
// workload on a fresh zero-fault MS-MISO system under one plane setting
// per row and renders what the run left behind — the durable-state
// digest, the simulated TTI and every answer's data checksum — in the
// format of testdata/msmiso_small.golden. Every row must reproduce that
// file byte for byte: worker counts, an armed but idle hedge and the
// zero-value planes may change wall clock, never an answer, a design or a
// simulated second; nor may a ledger attached at an unreachable limit, a
// retry budget with nothing to retry, or a repair-mode integrity audit of
// a clean run.
//
// The golden was recorded from the row-at-a-time serial engine
// (ExecWorkers = -1) before that engine left the production build, so it
// is an oracle independent of the engine under test; DESIGN.md §12 says
// how to regenerate it.
func TestPlaneMatrixMatchesGolden(t *testing.T) {
	gold, err := os.ReadFile("testdata/msmiso_small.golden")
	if err != nil {
		t.Fatal(err)
	}
	viaRunContext := func(sys *multistore.System, sql string) (*multistore.QueryReport, error) {
		return sys.RunContext(context.Background(), sql)
	}
	// repairAudit is a full repair-mode integrity pass; on a clean run it
	// must find nothing, so it must change nothing.
	repairAudit := func(t *testing.T, sys *multistore.System) {
		viols, _, err := sys.AuditViews("", 0, true)
		if err != nil {
			t.Fatalf("audit views: %v", err)
		}
		iviols, err := sys.AuditInvariants(true)
		if err != nil {
			t.Fatalf("audit invariants: %v", err)
		}
		if len(viols)+len(iviols) != 0 {
			t.Fatalf("clean run reported violations: %v %v", viols, iviols)
		}
	}
	for _, row := range []struct {
		name string
		set  func(*multistore.Config)
		// run submits one query (nil: sys.Run); after runs once it returned.
		run   func(*multistore.System, string) (*multistore.QueryReport, error)
		after func(*testing.T, *multistore.System)
	}{
		// Hedge off and reuse zero-config are the defaults.
		{name: "defaults: hedge off, reuse zero-config", set: func(*multistore.Config) {}},
		{name: "exec workers=1", set: func(c *multistore.Config) { c.ExecWorkers = 1 }},
		{name: "exec workers=8", set: func(c *multistore.Config) { c.ExecWorkers = 8 }},
		{name: "tune workers=1", set: func(c *multistore.Config) { c.Tuner.TuneWorkers = 1 }},
		{name: "tune workers=8", set: func(c *multistore.Config) { c.Tuner.TuneWorkers = 8 }},
		{name: "hedge enabled but idle", set: func(c *multistore.Config) {
			c.Hedge = multistore.HedgeConfig{Enabled: true, Multiplier: 1000, MinDelay: time.Hour}
		}},
		// The governance-off identity misobench -mode benchgov also
		// reports: a ledger attached at a limit no query reaches.
		{name: "unreachable memory limit through RunContext",
			set: func(c *multistore.Config) { c.MemLimitBytes = 1 << 40 }, run: viaRunContext},
		{name: "retry budget at zero fault rate", set: func(c *multistore.Config) { c.RetryBudget = 1 }},
		// Durability on so the WAL audit has a journal to check.
		{name: "repair-mode audit after every query",
			set: func(c *multistore.Config) { c.CheckpointEvery = 4 }, after: repairAudit},
	} {
		t.Run(row.name, func(t *testing.T) {
			cat, err := data.Generate(data.SmallConfig())
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			cfg := multistore.DefaultConfig(multistore.VariantMSMiso)
			cfg.SetBudgets(cat, 2.0, 10<<30)
			row.set(&cfg)
			sys := multistore.New(cfg, cat)
			if err := sys.ProvideFutureWorkload(workload.SQLs()); err != nil {
				t.Fatalf("future workload: %v", err)
			}
			var answers strings.Builder
			for _, q := range workload.Evolving() {
				run := row.run
				if run == nil {
					run = (*multistore.System).Run
				}
				rep, err := run(sys, q.SQL)
				if err != nil {
					t.Fatalf("query %s: %v", q.Name, err)
				}
				if row.after != nil {
					row.after(t, sys)
				}
				fmt.Fprintf(&answers, "%s %016x\n", q.Name, storage.ChecksumData(rep.Result))
			}
			if err := sys.CheckInvariants(); err != nil {
				t.Fatalf("invariants: %v", err)
			}
			got := fmt.Sprintf("state_digest %016x\ntti %s\n%s", sys.StateDigest(),
				strconv.FormatFloat(sys.Metrics().TTI(), 'g', -1, 64), answers.String())
			if got != string(gold) {
				t.Fatalf("run diverged from testdata/msmiso_small.golden:\n--- got\n%s--- want\n%s", got, gold)
			}
		})
	}
}
