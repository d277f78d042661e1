// Command misobench regenerates the tables and figures of the paper's
// evaluation section plus the extension pipelines. Every experiment is a
// named mode in one registry: -modes lists them, -mode runs any set of
// them, and -all runs the paper's figures and tables.
//
// Usage:
//
//	misobench -modes                     # list every mode and its artifact
//	misobench -mode fig4,scenarios       # run any modes by name
//	misobench -mode fig4                 # Figure 4 (five-variant TTI comparison)
//	misobench -mode fig3.2               # the Section 3.2 two-query experiment
//	misobench -mode table2               # Table 2 (mutual impact)
//	misobench -all -scale small          # every paper figure/table, quickly
//	misobench -mode chaos                # fault-injection sweep (extension)
//	misobench -mode crash                # crash-recovery sweep (durability extension)
//	misobench -mode serve -scale small -sessions 8 -workers 4    # concurrent soak
//	misobench -mode bench -benchout BENCH_tuner.json             # benchmark pipeline
//	misobench -mode benchgov -benchgovout BENCH_governance.json  # governance pipeline
//	misobench -mode scenarios            # overload scenario matrix -> BENCH_scenarios.json
//	misobench -mode endurance            # adversarial endurance harness -> BENCH_endurance.json
//	misobench -mode cache -scale small   # cross-query reuse soak -> BENCH_cache.json
//
// Profiling: -cpuprofile and -memprofile write pprof profiles covering
// whatever experiments the invocation runs (see README.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"miso/internal/experiments"
	"miso/internal/workload"
)

// mode is one registered experiment: a stable name, what it produces, and
// the artifact file it can write (empty when it only prints).
type mode struct {
	name     string
	desc     string
	artifact string
	run      func() error
}

func main() {
	all := flag.Bool("all", false, "regenerate every paper figure and table")
	listModes := flag.Bool("modes", false, "list every registered mode and exit")
	modeList := flag.String("mode", "", "comma-separated mode names to run (see -modes)")
	scale := flag.String("scale", "paper", "dataset scale: paper or small")
	faultRate := flag.Float64("faultrate", 0, "uniform fault-injection rate applied to every experiment (0 disables)")
	faultSeed := flag.Int64("faultseed", 42, "seed for the deterministic fault injector")
	sessions := flag.Int("sessions", 8, "soak: concurrent client sessions")
	squeries := flag.Int("squeries", 32, "soak: queries per session (cycles the 32-query workload)")
	workers := flag.Int("workers", 4, "soak: serving worker pool size")
	queue := flag.Int("queue", 0, "soak: admission queue depth (0 = twice the workers)")
	timeout := flag.Duration("timeout", 0, "soak: per-query wall-clock deadline (0 disables)")
	reorgEvery := flag.Int("reorgevery", 0, "soak: force an online reorganization every n submissions (0 disables)")
	benchOut := flag.String("benchout", "", "benchmark pipeline: also write the machine-readable JSON report to this file")
	benchGovOut := flag.String("benchgovout", "", "governance pipeline: also write the machine-readable JSON report to this file")
	scenariosOut := flag.String("scenariosout", "BENCH_scenarios.json", "scenario matrix: write the machine-readable JSON report to this file ('' disables)")
	phaseDur := flag.Duration("phasedur", 0, "scenario matrix: duration of each load phase (0 = default)")
	cacheSessions := flag.Int("cachesessions", 0, "cache soak: concurrent client sessions (0 = default 4)")
	cacheRounds := flag.Int("cacherounds", 0, "cache soak: workload passes per session (0 = default 3)")
	cacheOut := flag.String("cacheout", "BENCH_cache.json", "cache soak: write the machine-readable JSON report to this file ('' disables)")
	enduranceOut := flag.String("enduranceout", "BENCH_endurance.json", "endurance harness: write the machine-readable JSON report to this file ('' disables)")
	enduranceTenants := flag.Int("endurancetenants", 0, "endurance: closed-loop client/tenant population (0 = default 200)")
	enduranceReorgs := flag.Int("endurancereorgs", 0, "endurance: reorganization-cycle horizon (0 = default 3)")
	enduranceQueries := flag.Int("endurancequeries", 0, "endurance: served-query horizon (0 = default 150)")
	enduranceDur := flag.Duration("endurancedur", 0, "endurance: wall-clock cap (0 = default 3m)")
	tuneWorkers := flag.Int("tuneworkers", 0, "tuner what-if worker pool size for all experiments (<= 1 keeps costing serial)")
	execWorkers := flag.Int("execworkers", 0, "execution worker pool size for all experiments: 0 = GOMAXPROCS, n = n workers")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile covering the whole run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()
	if *execWorkers < 0 {
		fmt.Fprintf(os.Stderr, "invalid value %d for flag -execworkers: must be >= 0\n", *execWorkers)
		flag.Usage()
		os.Exit(2)
	}

	cfg := experiments.Default()
	if *scale == "small" {
		cfg = experiments.Small()
	}
	cfg.FaultRate = *faultRate
	cfg.FaultSeed = *faultSeed
	cfg.TuneWorkers = *tuneWorkers
	cfg.ExecWorkers = *execWorkers

	writeJSON := func(path string, write func(io.Writer) error) error {
		if path == "" {
			return nil
		}
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := write(f); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
		return nil
	}

	// fig5 reuses fig4's result when both run in one invocation.
	var fig4 *experiments.Fig4Result

	registry := []mode{
		{"fig3", "Figure 3: per-query HV vs DW execution profile", "", func() error {
			r, err := experiments.Fig3(cfg)
			if err != nil {
				return err
			}
			r.WriteText(os.Stdout)
			return nil
		}},
		{"fig3.2", "Section 3.2: the two-query transfer experiment", "", func() error {
			r, err := experiments.Sec32(cfg)
			if err != nil {
				return err
			}
			r.WriteText(os.Stdout)
			return nil
		}},
		{"fig4", "Figure 4: five-variant TTI comparison", "", func() error {
			r, err := experiments.Fig4(cfg)
			if err != nil {
				return err
			}
			fig4 = r
			r.WriteText(os.Stdout)
			return nil
		}},
		{"fig5", "Figure 5: TTI speedup over HV-OP", "", func() error {
			r, err := experiments.Fig5(cfg, fig4)
			if err != nil {
				return err
			}
			r.WriteText(os.Stdout)
			return nil
		}},
		{"fig6", "Figure 6: per-query time across the evolving workload", "", func() error {
			names := make([]string, 0, 32)
			for _, q := range workload.Evolving() {
				names = append(names, q.Name)
			}
			r, err := experiments.Fig6(cfg, names)
			if err != nil {
				return err
			}
			r.WriteText(os.Stdout)
			return nil
		}},
		{"fig7", "Figure 7: tuning policy comparison", "", func() error {
			r, err := experiments.Fig7(cfg)
			if err != nil {
				return err
			}
			r.WriteText(os.Stdout)
			return nil
		}},
		{"fig8", "Figure 8: transfer budget sensitivity", "", func() error {
			r, err := experiments.Fig8(cfg)
			if err != nil {
				return err
			}
			r.WriteText(os.Stdout)
			return nil
		}},
		{"fig9", "Figure 9: storage budget sensitivity", "", func() error {
			r, err := experiments.Fig9(cfg)
			if err != nil {
				return err
			}
			r.WriteText(os.Stdout)
			return nil
		}},
		{"table2", "Table 2: mutual impact of sharing the DW", "", func() error {
			r, err := experiments.Table2(cfg)
			if err != nil {
				return err
			}
			r.WriteText(os.Stdout)
			return nil
		}},
		{"order", "workload order sensitivity (extension)", "", func() error {
			r, err := experiments.OrderSensitivity(cfg)
			if err != nil {
				return err
			}
			r.WriteText(os.Stdout)
			return nil
		}},
		{"chaos", "fault-injection sweep (robustness extension)", "", func() error {
			r, err := experiments.Chaos(cfg)
			if err != nil {
				return err
			}
			r.WriteText(os.Stdout)
			return nil
		}},
		{"crash", "crash-recovery sweep (durability extension)", "", func() error {
			r, err := experiments.CrashSweep(cfg)
			if err != nil {
				return err
			}
			r.WriteText(os.Stdout)
			return nil
		}},
		{"bench", "benchmark pipeline: tuner, knapsack, serving", "BENCH_tuner.json", func() error {
			r, err := experiments.Bench(cfg)
			if err != nil {
				return err
			}
			r.WriteText(os.Stdout)
			return writeJSON(*benchOut, r.WriteJSON)
		}},
		{"benchgov", "governance pipeline: cancellation storm, panic containment, memory budgets", "BENCH_governance.json", func() error {
			r, err := experiments.BenchGovern(cfg)
			if err != nil {
				return err
			}
			r.WriteText(os.Stdout)
			return writeJSON(*benchGovOut, r.WriteJSON)
		}},
		{"serve", "concurrent-serving soak (robustness extension)", "", func() error {
			sc := experiments.DefaultSoak(cfg)
			sc.Sessions = *sessions
			sc.Queries = *squeries
			sc.Workers = *workers
			sc.Queue = *queue
			sc.Timeout = *timeout
			sc.ReorgEvery = *reorgEvery
			r, err := experiments.Soak(sc)
			if err != nil {
				return err
			}
			r.WriteText(os.Stdout)
			return nil
		}},
		{"scenarios", "overload scenario matrix: flash crowd, tenant skew, diurnal, drift churn, ETL storm, DW brownout", "BENCH_scenarios.json", func() error {
			sc := experiments.DefaultScenarios(cfg)
			sc.Workers = *workers
			sc.Queue = *queue
			if *phaseDur > 0 {
				sc.PhaseDur = *phaseDur
			}
			r, err := experiments.RunScenarios(sc)
			if err != nil {
				return err
			}
			r.WriteText(os.Stdout)
			if err := writeJSON(*scenariosOut, r.WriteJSON); err != nil {
				return err
			}
			if !r.Passed() {
				return fmt.Errorf("scenario matrix: one or more scenarios failed their acceptance checks")
			}
			return nil
		}},
		{"cache", "cross-query reuse soak: semantic result cache + shared-flight piggybacking vs cold execution", "BENCH_cache.json", func() error {
			cc := experiments.DefaultCache(cfg)
			if *cacheSessions > 0 {
				cc.Sessions = *cacheSessions
			}
			if *cacheRounds > 0 {
				cc.Rounds = *cacheRounds
			}
			cc.Workers = *workers
			cc.Queue = *queue
			r, err := experiments.BenchCache(cc)
			if err != nil {
				return err
			}
			r.WriteText(os.Stdout)
			if err := writeJSON(*cacheOut, r.WriteJSON); err != nil {
				return err
			}
			if !r.Passed() {
				return fmt.Errorf("cache soak: acceptance gate failed (want speedup >= 2x, hit rate > 0, digest-identical answers, drain-barrier invalidation)")
			}
			return nil
		}},
		{"endurance", "long-horizon adversarial endurance harness: closed-loop tenants, bit-rot injection, self-healing audit", "BENCH_endurance.json", func() error {
			ec := experiments.DefaultEndurance(cfg)
			if *enduranceTenants > 0 {
				ec.Tenants = *enduranceTenants
			}
			if *enduranceReorgs > 0 {
				ec.MinReorgs = *enduranceReorgs
			}
			if *enduranceQueries > 0 {
				ec.MinQueries = *enduranceQueries
			}
			if *enduranceDur > 0 {
				ec.MaxDuration = *enduranceDur
			}
			r, err := experiments.RunEndurance(ec)
			if err != nil {
				return err
			}
			r.WriteText(os.Stdout)
			if err := writeJSON(*enduranceOut, r.WriteJSON); err != nil {
				return err
			}
			if !r.Passed() {
				return fmt.Errorf("endurance harness: one or more acceptance checks failed")
			}
			return nil
		}},
	}
	byName := map[string]*mode{}
	for i := range registry {
		byName[registry[i].name] = &registry[i]
	}

	printModes := func(w *os.File) {
		fmt.Fprintf(w, "%-12s %-24s %s\n", "MODE", "ARTIFACT", "DESCRIPTION")
		for _, m := range registry {
			art := m.artifact
			if art == "" {
				art = "-"
			}
			fmt.Fprintf(w, "%-12s %-24s %s\n", m.name, art, m.desc)
		}
	}
	if *listModes {
		printModes(os.Stdout)
		return
	}

	unknown := func(name string) {
		fmt.Fprintf(os.Stderr, "unknown mode %q; registered modes:\n", name)
		printModes(os.Stderr)
		os.Exit(2)
	}

	// Resolve -all and -mode into registry names.
	targets := map[string]bool{}
	want := func(name string) {
		if _, ok := byName[name]; !ok {
			unknown(name)
		}
		targets[name] = true
	}
	if *all {
		for _, t := range []string{"fig3", "fig3.2", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "table2", "order"} {
			want(t)
		}
	}
	if *modeList != "" {
		for _, name := range strings.Split(*modeList, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			want(name)
		}
	}
	if len(targets) == 0 {
		fmt.Fprintln(os.Stderr, "nothing to do; pass -mode or -all (see -modes and -h)")
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				os.Exit(1)
			}
		}()
	}

	for _, m := range registry {
		if !targets[m.name] {
			continue
		}
		start := time.Now()
		if err := m.run(); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", m.name, err)
			os.Exit(1)
		}
		fmt.Printf("[%s done in %s wall clock]\n\n", m.name, time.Since(start).Round(time.Millisecond))
	}
}
