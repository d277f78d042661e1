package multistore_test

import (
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
// simulated second.
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
	for _, row := range []struct {
		name string
		set  func(*multistore.Config)
	}{
		// Hedge off and reuse zero-config are the defaults.
		{"defaults: hedge off, reuse zero-config", func(*multistore.Config) {}},
		{"exec workers=1", func(c *multistore.Config) { c.ExecWorkers = 1 }},
		{"exec workers=8", func(c *multistore.Config) { c.ExecWorkers = 8 }},
		{"tune workers=1", func(c *multistore.Config) { c.Tuner.TuneWorkers = 1 }},
		{"tune workers=8", func(c *multistore.Config) { c.Tuner.TuneWorkers = 8 }},
		{"hedge enabled but idle", func(c *multistore.Config) {
			c.Hedge = multistore.HedgeConfig{Enabled: true, Multiplier: 1000, MinDelay: time.Hour}
		}},
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
				rep, err := sys.Run(q.SQL)
				if err != nil {
					t.Fatalf("query %s: %v", q.Name, err)
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
