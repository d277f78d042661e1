// Command misoquery runs ad-hoc HiveQL against a multistore instance. The
// query executes for real over the synthetic logs; the report shows where
// the plan ran (HV, DW, transfers), the simulated time breakdown, and the
// first rows of the result.
//
// Usage:
//
//	misoquery -sql "SELECT hashtag, COUNT(*) AS n FROM tweets GROUP BY hashtag ORDER BY n DESC LIMIT 5"
//	misoquery -name A1v1 -variant MS-MISO -warm
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"miso/internal/logical"
	"miso/internal/workload"
	"miso/miso"
)

func main() {
	sql := flag.String("sql", "", "HiveQL query to run")
	name := flag.String("name", "", "workload query id to run instead (e.g. A1v1)")
	variant := flag.String("variant", string(miso.MSMiso), "system variant")
	scale := flag.String("scale", "small", "dataset scale: paper or small")
	warm := flag.Bool("warm", false, "run the preceding workload queries first (warms views)")
	maxRows := flag.Int("rows", 10, "max result rows to print")
	explain := flag.Bool("explain", false, "print the chosen multistore plan before running")
	faultRate := flag.Float64("faultrate", 0, "uniform fault-injection rate (0 disables the fault plane)")
	faultSeed := flag.Int64("faultseed", 42, "seed for the deterministic fault injector")
	tenant := flag.String("tenant", "", "tenant id the query is submitted as (surfaces per-tenant admission counters)")
	timeout := flag.Duration("timeout", 0, "per-query wall-clock deadline (0 disables; abandoned work is charged to RECOVERY)")
	memLimit := flag.Int64("memlimit", 0, "per-query memory budget in bytes (0 disables; exceeding aborts the query)")
	ckptEvery := flag.Int("checkpointevery", 0, "journal design mutations and checkpoint full state every n operations (0 disables the durability plane)")
	reuse := flag.Bool("reuse", false, "enable the cross-query reuse plane (result views); repeats of the same query over unchanged logs are served from a result view")
	cacheBytes := flag.Int64("cachebytes", 0, "with -reuse: bound on the result views' in-memory bytes (0 = default 64 MiB)")
	execWorkers := flag.Int("execworkers", 0, "execution worker pool size: 0 = GOMAXPROCS, n = n workers")
	auditFlag := flag.Bool("audit", false, "run a one-shot foreground integrity audit (standalone, or after the query when -sql/-name is given); exits 3 on violation")
	auditRepair := flag.Bool("auditrepair", false, "with -audit: self-heal corrupt views by recomputation instead of only reporting")
	flag.Parse()
	if *execWorkers < 0 {
		fmt.Fprintf(os.Stderr, "invalid value %d for flag -execworkers: must be >= 0\n", *execWorkers)
		flag.Usage()
		os.Exit(2)
	}

	query := *sql
	if *name != "" {
		q, ok := workload.ByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload query %q\n", *name)
			os.Exit(2)
		}
		query = q.SQL
	}
	if query == "" && !*auditFlag {
		fmt.Fprintln(os.Stderr, "pass -sql or -name (see -h)")
		os.Exit(2)
	}

	dataCfg := miso.SmallData()
	if *scale == "paper" {
		dataCfg = miso.DefaultData()
	}
	sysCfg := miso.DefaultConfig(miso.Variant(*variant))
	sysCfg.Faults = miso.UniformFaults(*faultRate)
	sysCfg.FaultSeed = *faultSeed
	sysCfg.CheckpointEvery = *ckptEvery
	sysCfg.ExecWorkers = *execWorkers
	sysCfg.MemLimitBytes = *memLimit
	sysCfg.Reuse = miso.ReuseConfig{Enabled: *reuse, CacheBytes: *cacheBytes}
	sys, err := miso.Open(sysCfg, dataCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := sys.ProvideFutureWorkload(workload.SQLs()); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *warm && *name != "" {
		for _, q := range workload.Evolving() {
			if q.Name == *name {
				break
			}
			if _, err := sys.Run(q.SQL); err != nil {
				fmt.Fprintf(os.Stderr, "warmup %s: %v\n", q.Name, err)
				os.Exit(1)
			}
		}
	}

	if query == "" {
		// -audit with no query: check the freshly opened system and exit.
		runAudit(sys, *auditRepair)
		return
	}

	if *explain {
		plan, err := logical.NewBuilder(sys.Catalog()).BuildSQL(query)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		mp, err := sys.Optimizer().Choose(plan, sys.Design())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Print(mp.Explain())
		fmt.Println()
	}

	// Per-operator wall-clock counters for this query alone: attached
	// after warmup so the breakdown covers only the measured run.
	st := &miso.ExecStats{}
	sys.SetExecStats(st)

	// The query goes through the serving frontend (one worker, so the
	// execution itself is identical to sys.Run) to get deadline
	// enforcement and the serving counters. Ctrl-C cancels the query
	// cooperatively: the morsel workers notice at their next claim and the
	// partial work is charged to recovery.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	srv := miso.NewServer(miso.ServeConfig{Workers: 1, QueryTimeout: *timeout}, sys)
	rep, err := srv.DoAs(ctx, *tenant, query)
	srv.Close()
	sm := srv.Metrics()
	tenantLine := ""
	for _, ts := range srv.TenantStats() {
		if ts.Tenant == "" {
			continue // anonymous submissions have no per-tenant accounting to show
		}
		tenantLine += fmt.Sprintf(", tenant %q served %d shed %d", ts.Tenant, ts.Served, ts.Shed)
	}
	if err != nil {
		m := sys.Metrics()
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			fmt.Fprintf(os.Stderr, "misoquery: query abandoned after %s deadline (%.1fs of partial work charged to recovery)\n",
				*timeout, m.Recovery)
		case errors.Is(err, context.Canceled):
			fmt.Fprintf(os.Stderr, "misoquery: query canceled (%.1fs of partial work charged to recovery)\n",
				m.Recovery)
		case errors.Is(err, miso.ErrMemLimit):
			fmt.Fprintf(os.Stderr, "misoquery: query aborted over its %d-byte memory budget (%.1fs of partial work charged to recovery)\n",
				*memLimit, m.Recovery)
		default:
			fmt.Fprintln(os.Stderr, err)
		}
		os.Exit(1)
	}

	mode := "split execution"
	switch {
	case rep.CacheHit:
		mode = "served from a result view (no execution)"
	case rep.HVOnly:
		mode = "executed entirely in HV"
	case rep.BypassedHV:
		mode = "executed entirely in DW (bypassed HV)"
	}
	fmt.Printf("%s\n", mode)
	if rep.RecoverySeconds > 0 {
		fmt.Printf("simulated time: HV %.1fs + transfer %.1fs + DW %.1fs + recovery %.1fs = %.1fs\n",
			rep.HVSeconds, rep.TransferSeconds, rep.DWSeconds, rep.RecoverySeconds, rep.Total())
	} else {
		fmt.Printf("simulated time: HV %.1fs + transfer %.1fs + DW %.1fs = %.1fs\n",
			rep.HVSeconds, rep.TransferSeconds, rep.DWSeconds, rep.Total())
	}
	m := sys.Metrics()
	if rep.RecoverySeconds > 0 || rep.Retries > 0 {
		fallback := ""
		if rep.FellBackToHV {
			fallback = ", fell back to HV"
		}
		fmt.Printf("fault recovery: %.1fs across %d retries%s (sheds %d, fallbacks %d, degraded %d, timeouts %d)\n",
			rep.RecoverySeconds, rep.Retries, fallback,
			sm.Sheds, m.Fallbacks, m.Degraded, sm.Timeouts)
	}
	if len(rep.UsedViews) > 0 {
		fmt.Printf("views used: %v\n", rep.UsedViews)
	}
	fmt.Printf("opportunistic views created: %d\n", rep.NewViews)
	fmt.Printf("%d result rows\n", rep.ResultRows)
	fmt.Printf("serving: sheds %d, fallbacks %d, degraded %d, timeouts %d%s\n",
		sm.Sheds, m.Fallbacks, m.Degraded, sm.Timeouts, tenantLine)
	if *reuse {
		rs := sys.ReuseStats()
		fmt.Printf("reuse: %d cached subplans fed this query; cache %d hits / %d misses (%d entries, %d bytes)\n",
			rep.SubplanHits, m.CacheHits+m.SubplanHits, m.CacheMisses, rs.Cache.Entries, rs.Cache.Bytes)
	}
	if mgr := sys.Durability(); mgr != nil {
		fmt.Printf("durability: %d WAL records (%d bytes), %d checkpoints\n",
			mgr.WAL().Records(), mgr.WAL().LSN(), mgr.Checkpoints())
	}
	if len(st.Breakdown()) > 0 {
		fmt.Println("operator wall clock:")
		st.WriteBreakdown(os.Stdout)
	}

	if rep.Result != nil {
		fmt.Println()
		for _, c := range rep.Result.Schema.Columns {
			fmt.Printf("%-18s", c.Name)
		}
		fmt.Println()
		n := rep.Result.NumRows()
		if n > *maxRows {
			n = *maxRows
		}
		for _, row := range rep.Result.Rows[:n] {
			for _, v := range row {
				fmt.Printf("%-18s", v.String())
			}
			fmt.Println()
		}
		if rep.Result.NumRows() > n {
			fmt.Printf("... (%d more rows)\n", rep.Result.NumRows()-n)
		}
	}

	if *auditFlag {
		fmt.Println()
		runAudit(sys, *auditRepair)
	}
}

// runAudit performs one foreground integrity pass — every resident view
// plus the system invariants — and prints one pass/fail line per
// invariant family. It exits 3 when any violation was detected (even a
// repaired one: the stored state was bad) and 1 on a fatal audit error.
func runAudit(sys *miso.System, repair bool) {
	viols, err := miso.Audit(sys, repair)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	byFam := make(map[string][]miso.AuditViolation)
	for _, v := range viols {
		byFam[v.Invariant] = append(byFam[v.Invariant], v)
	}
	fmt.Println("integrity audit:")
	for _, fam := range miso.AuditFamilies() {
		vs := byFam[fam]
		if len(vs) == 0 {
			fmt.Printf("  %-12s pass\n", fam)
			continue
		}
		repaired := 0
		for _, v := range vs {
			if v.Repaired {
				repaired++
			}
		}
		fmt.Printf("  %-12s FAIL (%d violations, %d repaired)\n", fam, len(vs), repaired)
		for _, v := range vs {
			fmt.Printf("    %s\n", v.String())
		}
	}
	if len(viols) > 0 {
		os.Exit(3)
	}
}
