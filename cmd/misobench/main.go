// Command misobench regenerates the tables and figures of the paper's
// evaluation section plus the extension pipelines. Every experiment is a
// named mode in one registry: -modes lists them, -mode runs any set of
// them, and -all runs the paper's figures and tables. A mode is data — a
// function returning a report — and one runner prints it, writes its JSON
// artifact when -out names a directory, and fails it when the report has
// acceptance checks and they failed. Every requested mode runs; the
// command then exits 1, naming each mode that failed.
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
//	misobench -mode serve -scale small -sessions 8   # concurrent soak
//	misobench -mode ablate -scale small  # the tuner's design choices, one changed at a time
//	misobench -mode benchgov -out .      # governance pipeline -> ./BENCH_governance.json
//	misobench -mode scenarios -dur 2s    # overload scenario matrix, 2s per load phase
//	misobench -mode endurance -sessions 60 -dur 90s  # adversarial endurance harness, 60 tenants, 90s cap
//	misobench -mode cache -scale small   # cross-query reuse soak
//
// Nothing is written unless -out is given; each mode's artifact lands in
// that directory under the name -modes lists.
//
// Profiling: -cpuprofile and -memprofile write pprof profiles covering
// whatever experiments the invocation runs (see README.md).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"miso/internal/experiments"
	"miso/internal/workload"
)

// report is what every mode produces. The report of a mode with an
// artifact is what -out writes as JSON; one that has Passed() bool gates
// the exit code.
type report interface{ WriteText(io.Writer) }

// mode is one registered experiment: a stable name, what it produces, the
// artifact file -out writes (empty when it only prints), and the function
// that runs it.
type mode struct {
	name     string
	desc     string
	artifact string
	run      func(experiments.Config) (report, error)
}

// plain adapts an experiment that takes only the shared configuration.
func plain[R report](f func(experiments.Config) (R, error)) func(experiments.Config) (report, error) {
	return func(cfg experiments.Config) (report, error) { return f(cfg) }
}

func main() {
	all := flag.Bool("all", false, "regenerate every paper figure and table")
	listModes := flag.Bool("modes", false, "list every registered mode and exit")
	modeList := flag.String("mode", "", "comma-separated mode names to run (see -modes)")
	scale := flag.String("scale", "paper", "dataset scale: paper or small")
	out := flag.String("out", "", "directory to write each mode's JSON artifact into, under the name -modes lists ('' writes nothing)")
	faultRate := flag.Float64("faultrate", 0, "uniform fault-injection rate applied to every experiment; a harness that arms its own fault profile overrides it (0 disables)")
	faultSeed := flag.Int64("faultseed", 42, "seed for the deterministic fault injector")
	sessions := flag.Int("sessions", 0, "serve, cache, endurance: concurrent client sessions / tenants (0 = the mode's default: 8, 4, 200)")
	dur := flag.Duration("dur", 0, "scenarios: duration of each load phase; endurance: wall-clock cap (0 = the mode's default: 2s, 3m)")
	enduranceQueries := flag.Int("endurancequeries", 0, "endurance: served-query horizon (0 = default 150)")
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
	cfg.ExecWorkers = *execWorkers

	// fig5 reuses fig4's result when both run in one invocation.
	var fig4 *experiments.Fig4Result

	registry := []mode{
		{"fig3", "Figure 3: cost profile of every split plan for A1v1", "", plain(experiments.Fig3)},
		{"fig3.2", "Section 3.2: the two-query transfer experiment", "", plain(experiments.Sec32)},
		{"fig4", "Figure 4: five-variant TTI comparison", "", func(cfg experiments.Config) (report, error) {
			r, err := experiments.Fig4(cfg)
			fig4 = r
			return r, err
		}},
		{"fig5", "Figure 5: cumulative TTI and query-time distribution CDFs", "", func(cfg experiments.Config) (report, error) {
			return experiments.Fig5(cfg, fig4)
		}},
		{"fig6", "Figure 6: per-query store utilization, MS-BASIC vs MS-MISO", "", func(cfg experiments.Config) (report, error) {
			names := make([]string, 0, 32)
			for _, q := range workload.Evolving() {
				names = append(names, q.Name)
			}
			return experiments.Fig6(cfg, names)
		}},
		{"fig7", "Figure 7: tuning policy comparison", "", plain(experiments.Fig7)},
		{"fig8", "Figure 8: TTI vs view storage budget, Bt held constant", "", plain(experiments.Fig8)},
		{"fig9", "Figure 9: MS-MISO replayed on a DW with 40% spare IO", "", plain(experiments.Fig9)},
		{"table2", "Table 2: mutual impact of sharing the DW", "", plain(experiments.Table2)},
		{"order", "workload order sensitivity (extension)", "", plain(experiments.OrderSensitivity)},
		{"ablate", "tuner ablations: knapsack order, sparsification, decay, replication, transfer budget", "", plain(experiments.Ablate)},
	}
	// The plane harnesses are modes of one scenario table.
	shape := experiments.Shape{Sessions: *sessions, Dur: *dur, Queries: *enduranceQueries}
	for _, t := range experiments.Modes {
		registry = append(registry, mode{t.Name, t.Desc, t.Artifact, func(cfg experiments.Config) (report, error) {
			return t.Run(cfg, shape)
		}})
	}
	known := map[string]bool{}
	for _, m := range registry {
		known[m.name] = true
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

	// Resolve -all and -mode into registry names.
	targets := map[string]bool{}
	want := func(name string) {
		if !known[name] {
			fmt.Fprintf(os.Stderr, "unknown mode %q; registered modes:\n", name)
			printModes(os.Stderr)
			os.Exit(2)
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

	var selected []mode
	for _, m := range registry {
		if targets[m.name] {
			selected = append(selected, m)
		}
	}
	if code := runModes(selected, cfg, *out); code != 0 {
		os.Exit(code)
	}
}

// runModes runs every mode in order, each one even when an earlier one
// failed, and returns the exit status: 1 after naming every failed mode on
// stderr, 0 when all of them passed.
func runModes(modes []mode, cfg experiments.Config, outDir string) int {
	var failed []string
	for _, m := range modes {
		start := time.Now()
		if err := runMode(m, cfg, outDir); err != nil {
			fmt.Fprintf(os.Stderr, "experiment %s failed: %v\n", m.name, err)
			failed = append(failed, m.name)
		}
		fmt.Printf("[%s done in %s wall clock]\n\n", m.name, time.Since(start).Round(time.Millisecond))
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "misobench: %d of %d modes failed: %s\n", len(failed), len(modes), strings.Join(failed, ", "))
		return 1
	}
	return 0
}

// runMode runs one mode: print the report, write its artifact into outDir
// when one is named, and fail when the report's acceptance checks did.
func runMode(m mode, cfg experiments.Config, outDir string) error {
	r, err := m.run(cfg)
	if err != nil {
		return err
	}
	r.WriteText(os.Stdout)
	if outDir != "" && m.artifact != "" {
		path := filepath.Join(outDir, m.artifact)
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := experiments.WriteJSON(f, r); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", path)
	}
	if p, ok := r.(interface{ Passed() bool }); ok && !p.Passed() {
		return fmt.Errorf("acceptance checks failed (see the report above)")
	}
	return nil
}
