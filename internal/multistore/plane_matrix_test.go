package multistore_test

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"miso/internal/data"
	"miso/internal/faults"
	"miso/internal/multistore"
	"miso/internal/serve"
	"miso/internal/storage"
	"miso/internal/workload"
)

// updateVariants rewrites testdata/variants_small.golden from the run
// (`go test ./internal/multistore -run TestPlaneMatrixMatchesGolden
// -update-variants`). Only a change that is meant to move a variant's
// design, answers or simulated time may use it; msmiso_small.golden is
// never rewritten (DESIGN.md §12 says how that one was recorded).
var updateVariants = flag.Bool("update-variants", false, "rewrite testdata/variants_small.golden")

// matrixRow is one configuration of the plane matrix: a variant, a
// configuration mutation, and how the workload is submitted.
type matrixRow struct {
	name    string
	variant multistore.Variant // zero: MS-MISO
	set     func(*multistore.Config)
	// run submits the i-th query (nil: sys.Run); after runs once it returned.
	run   func(sys *multistore.System, i int, sql string) (*multistore.QueryReport, error)
	after func(*testing.T, *multistore.System)
	// done runs once after the last query.
	done func(*testing.T, *multistore.System)
	// passes is how many times the workload is asked (zero: once).
	passes int
	// stanza names the row's stanza in variants_small.golden; empty means
	// the row must reproduce msmiso_small.golden.
	stanza string
}

// chaos42 is the 5% uniform fault profile at seed 42 (the chaos test's).
func chaos42(c *multistore.Config) {
	c.Faults = faults.Uniform(0.05)
	c.FaultSeed = 42
}

// dwStorm is a DW-side fault storm with a short retry policy, so a
// fraction of split plans exhausts its retries and falls back to HV.
func dwStorm(c *multistore.Config) {
	c.Faults = faults.Profile{}.With(faults.SiteDWQuery, 0.5)
	c.FaultSeed = 11
	c.Retry = faults.RetryPolicy{MaxAttempts: 2, BaseBackoff: 1, BackoffFactor: 2, MaxBackoff: 4}
}

// dwOutage is a total DW outage: every DW call fails, so every plan that
// reaches DW exhausts its retries and completes through the HV fallback.
func dwOutage(c *multistore.Config) {
	c.Faults = faults.Profile{}.With(faults.SiteDWQuery, 1.0)
	c.FaultSeed = 7
	c.Retry = faults.RetryPolicy{MaxAttempts: 2, BaseBackoff: 1, BackoffFactor: 2, MaxBackoff: 4}
}

// midPlanStorm makes every mid-plan exit common: working-set loads abort
// and arrive corrupt, the DW side gives out, HV stages retry, views rot,
// and the odd query dies at the serve crash site (a lost query folds into
// the stanza as a marker). It pins the order in which the query path
// consumes injector draws, fallbacks included.
func midPlanStorm(c *multistore.Config) {
	c.Faults = faults.Profile{
		HVStage: 0.1, TransferLoad: 0.4, DWQuery: 0.4,
		ViewCorrupt: 0.15, ViewRot: 0.2, CrashServe: 0.03,
	}
	c.FaultSeed = 7
	c.Retry = faults.RetryPolicy{MaxAttempts: 2, BaseBackoff: 1, BackoffFactor: 2, MaxBackoff: 4}
}

// atGOMAXPROCS runs a default MS-MISO row with the scheduler at n
// processors, restoring the previous setting once the row is done.
func atGOMAXPROCS(n int) matrixRow {
	var prev int
	return matrixRow{name: fmt.Sprintf("GOMAXPROCS=%d", n),
		set:  func(*multistore.Config) { prev = runtime.GOMAXPROCS(n) },
		done: func(*testing.T, *multistore.System) { runtime.GOMAXPROCS(prev) }}
}

func matrixRows() []matrixRow {
	viaRunContext := func(sys *multistore.System, _ int, sql string) (*multistore.QueryReport, error) {
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
	// The serving frontend with a zero-value Quota config must leave the
	// plane exactly as before: no quota sheds, per-tenant accounting still
	// working.
	var srv *serve.Server
	rows := []matrixRow{
		{name: "served, overload plane disabled",
			run: func(sys *multistore.System, _ int, sql string) (*multistore.QueryReport, error) {
				if srv == nil {
					srv = serve.NewServer(serve.Config{Workers: 2, QueueDepth: 8}, sys)
				}
				return srv.DoAs(context.Background(), "t0", sql)
			},
			done: func(t *testing.T, _ *multistore.System) {
				defer srv.Close()
				if m := srv.Metrics(); m.QuotaSheds != 0 {
					t.Fatalf("disabled overload plane touched its counters: %+v", m)
				}
				n := len(workload.Evolving())
				if ts := srv.TenantStats(); len(ts) != 1 || ts[0].Tenant != "t0" || ts[0].Served != n || ts[0].Shed != 0 {
					t.Fatalf("tenant accounting off: %+v", ts)
				}
			}},
		// Reuse zero-config is the default.
		{name: "defaults: reuse zero-config"},
		{name: "exec workers=1", set: func(c *multistore.Config) { c.ExecWorkers = 1 }},
		{name: "exec workers=8", set: func(c *multistore.Config) { c.ExecWorkers = 8 }},
		// The tuner's what-if pool and exec's default pool both size
		// themselves from GOMAXPROCS (rows run one after another).
		atGOMAXPROCS(1), atGOMAXPROCS(8),
		// The governance-off identity misobench -mode benchgov also
		// reports: a ledger attached at a limit no query reaches.
		{name: "unreachable memory limit through RunContext",
			set: func(c *multistore.Config) { c.MemLimitBytes = 1 << 40 }, run: viaRunContext},
		// Durability on so the WAL audit has a journal to check.
		{name: "repair-mode audit after every query",
			set: func(c *multistore.Config) { c.CheckpointEvery = 4 }, after: repairAudit},
	}
	for _, v := range []multistore.Variant{
		multistore.VariantHVOnly, multistore.VariantDWOnly, multistore.VariantMSBasic,
		multistore.VariantHVOp, multistore.VariantMSMiso, multistore.VariantMSOff,
		multistore.VariantMSLru, multistore.VariantMSOra,
	} {
		rows = append(rows,
			matrixRow{name: string(v) + " clean", variant: v, stanza: string(v) + "/clean"},
			matrixRow{name: string(v) + " chaos", variant: v, set: chaos42, stanza: string(v) + "/chaos"},
			matrixRow{name: string(v) + " storm", variant: v, set: midPlanStorm, stanza: string(v) + "/storm"})
	}
	return append(rows,
		matrixRow{name: "MS-MISO chaos, checkpoint every 4", stanza: "MS-MISO/chaos+checkpoint4",
			set: func(c *multistore.Config) { chaos42(c); c.CheckpointEvery = 4 }},
		matrixRow{name: "DW storm", stanza: "MS-MISO/dw-storm", set: dwStorm,
			done: func(t *testing.T, sys *multistore.System) {
				if sys.Metrics().Fallbacks == 0 {
					t.Fatal("fault storm produced no fallbacks; the row exercises nothing")
				}
			}},
		// HV holds every base log, so a dead DW costs time, never an answer:
		// the answers fold to the clean runs'.
		matrixRow{name: "DW outage", stanza: "MS-MISO/dw-outage", set: dwOutage,
			done: func(t *testing.T, sys *multistore.System) {
				if m := sys.Metrics(); m.Queries != len(workload.Evolving()) || m.Fallbacks == 0 {
					t.Fatalf("DW outage: %d of %d queries completed, %d fallbacks; want all and some",
						m.Queries, len(workload.Evolving()), m.Fallbacks)
				}
			}},
		matrixRow{name: "every 4th query degraded, chaos", stanza: "MS-MISO/chaos+degraded4", set: chaos42,
			run: func(sys *multistore.System, i int, sql string) (*multistore.QueryReport, error) {
				if i%4 == 3 {
					return sys.RunDegraded(context.Background(), sql)
				}
				return sys.Run(sql)
			}},
		matrixRow{name: "reuse on, workload asked twice", stanza: "MS-MISO/reuse-twice", passes: 2,
			set: func(c *multistore.Config) { c.Reuse.Enabled = true }},
	)
}

// parseStanzas splits variants_small.golden into its named stanzas.
func parseStanzas(t *testing.T, text string) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, block := range strings.Split(text, "== ")[1:] {
		name, body, ok := strings.Cut(block, "\n")
		if !ok {
			t.Fatalf("malformed stanza %q", block)
		}
		out[name] = body
	}
	return out
}

// TestPlaneMatrixMatchesGolden replays the full 32-query evolving
// workload on a fresh system under one plane setting per row and renders
// what the run left behind — the durable-state digest, the simulated TTI
// and every answer's data checksum.
//
// The MS-MISO zero-fault rows must reproduce testdata/msmiso_small.golden
// byte for byte: worker counts and the zero-value planes may change wall
// clock, never an answer, a design or a simulated second; nor may a ledger
// attached at an unreachable limit or a repair-mode integrity audit of a
// clean run. That golden was recorded from the row-at-a-time serial
// engine (ExecWorkers = -1) before that engine left the production build,
// so it is an oracle independent of the engine under test; DESIGN.md §12
// says how to regenerate it.
//
// Every row runs with the plan-cache oracle armed: a cached plan must be
// the plan a fresh Choose picks. (The rows ask each statement once per
// reorganization epoch, so today none of them hits; the oracle guards the
// rows to come, and TestCachedPlanEqualsFreshChoose is where hits are.)
//
// The variant rows pin every variant, clean and under injected faults,
// plus the degraded route and the reuse plane, to their stanza of
// testdata/variants_small.golden (digest, TTI, and an FNV fold of the
// answers' checksums in submission order; a failed query folds in its
// position and a marker). That golden was recorded from the commit before
// the query path was folded into one, so it pins the fold: fault draws
// are consumed in program order, so a step moved across a draw changes a
// stanza.
func TestPlaneMatrixMatchesGolden(t *testing.T) {
	gold, err := os.ReadFile("testdata/msmiso_small.golden")
	if err != nil {
		t.Fatal(err)
	}
	vgold, err := os.ReadFile("testdata/variants_small.golden")
	if err != nil && !*updateVariants {
		t.Fatal(err)
	}
	stanzas := parseStanzas(t, string(vgold))
	var recorded []string
	seen := map[string]string{}

	for _, row := range matrixRows() {
		t.Run(row.name, func(t *testing.T) {
			multistore.ArmPlanOracle(t)
			cat, err := data.Generate(data.SmallConfig())
			if err != nil {
				t.Fatalf("generate: %v", err)
			}
			variant := row.variant
			if variant == "" {
				variant = multistore.VariantMSMiso
			}
			cfg := multistore.DefaultConfig(variant)
			cfg.SetBudgets(cat, 2.0, 10<<30)
			if row.set != nil {
				row.set(&cfg)
			}
			sys := multistore.New(cfg, cat)
			if err := sys.ProvideFutureWorkload(workload.SQLs()); err != nil {
				t.Fatalf("future workload: %v", err)
			}
			var answers strings.Builder
			fold := uint64(14695981039346656037) // FNV-1a over the checksums' bytes
			mix := func(v uint64) {
				for s := 0; s < 64; s += 8 {
					fold = (fold ^ (v >> s & 0xff)) * 1099511628211
				}
			}
			n := 0
			for pass := 0; pass < max(row.passes, 1); pass++ {
				for _, q := range workload.Evolving() {
					var rep *multistore.QueryReport
					var err error
					if row.run != nil {
						rep, err = row.run(sys, n, q.SQL)
					} else {
						rep, err = sys.Run(q.SQL)
					}
					switch {
					case err == nil:
						sum := storage.ChecksumData(rep.Result)
						fmt.Fprintf(&answers, "%s %016x\n", q.Name, sum)
						mix(sum)
					case row.stanza == "":
						t.Fatalf("query %s: %v", q.Name, err)
					default:
						// A variant with nowhere to degrade to may lose a
						// query to injected faults; which one is pinned.
						t.Logf("query %d (%s) failed: %v", n, q.Name, err)
						mix(uint64(n))
						mix(0xfa11ed)
					}
					if row.after != nil {
						row.after(t, sys)
					}
					n++
				}
			}
			// DW-ONLY's ETL loads the workload's logs into DW permanent
			// space whole; the view budget Bd does not govern it.
			if err := sys.CheckInvariants(); err != nil && variant != multistore.VariantDWOnly {
				t.Fatalf("invariants: %v", err)
			}
			if row.done != nil {
				row.done(t, sys)
			}
			head := fmt.Sprintf("state_digest %016x\ntti %s\n", sys.StateDigest(),
				strconv.FormatFloat(sys.Metrics().TTI(), 'g', -1, 64))
			if row.stanza == "" {
				if got := head + answers.String(); got != string(gold) {
					t.Fatalf("run diverged from testdata/msmiso_small.golden:\n--- got\n%s--- want\n%s", got, gold)
				}
				return
			}
			got := head + fmt.Sprintf("answers %016x\n", fold)
			if *updateVariants {
				if prev, ok := seen[row.stanza]; !ok {
					seen[row.stanza] = got
					recorded = append(recorded, "== "+row.stanza+"\n"+got)
				} else if prev != got {
					t.Fatalf("rows sharing stanza %s disagree:\n%s---\n%s", row.stanza, prev, got)
				}
				return
			}
			if want := stanzas[row.stanza]; got != want {
				t.Fatalf("run diverged from stanza %s of testdata/variants_small.golden:\n--- got\n%s--- want\n%s",
					row.stanza, got, want)
			}
		})
	}
	if *updateVariants && !t.Failed() {
		if err := os.WriteFile("testdata/variants_small.golden", []byte(strings.Join(recorded, "")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
