// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5): the split-plan profile (Fig 3), the two-query
// motivation (Section 3.2), the five-variant TTI comparison (Fig 4), the
// TTI and query-time CDFs (Fig 5), store utilization (Fig 6), the tuning
// technique comparison (Fig 7), the storage budget sweep (Fig 8), the
// spare-capacity timelines (Fig 9), and the mutual-impact table (Table 2).
// Each experiment returns structured results and renders a plain-text
// table; absolute numbers are simulated seconds, and the comparison targets
// are the paper's shapes (who wins, by what factor, where crossovers fall).
package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"

	"miso/internal/data"
	"miso/internal/faults"
	"miso/internal/multistore"
	"miso/internal/storage"
	"miso/internal/workload"
)

// Config parameterizes an experiment run.
type Config struct {
	// Data is the dataset configuration; DefaultConfig is paper scale.
	Data data.Config
	// BudgetMultiple is the view storage budget as a multiple of each
	// store's base size (2.0 in the main experiments).
	BudgetMultiple float64
	// TransferBudget is Bt in bytes (10 GB in the paper; calibrated to
	// this workload's view-size distribution, see EXPERIMENTS.md).
	TransferBudget int64
	// FaultRate applies a uniform fault-injection profile across all
	// sites; zero (the default) leaves the fault plane disabled.
	FaultRate float64
	// FaultSeed seeds the injector's deterministic RNG.
	FaultSeed int64
	// ExecWorkers bounds both stores' execution worker pools
	// (multistore.Config.ExecWorkers): 0 means GOMAXPROCS, n > 0 means n
	// workers. Results are byte-identical at every setting.
	ExecWorkers int
}

// Default returns the paper's main configuration.
func Default() Config {
	return Config{
		Data:           data.DefaultConfig(),
		BudgetMultiple: 2.0,
		TransferBudget: 10 << 30,
	}
}

// Small returns a quick configuration for tests.
func Small() Config {
	return Config{
		Data:           data.SmallConfig(),
		BudgetMultiple: 2.0,
		TransferBudget: 10 << 30,
	}
}

// multistoreConfig is the one place an experiment's backend configuration
// is assembled: a fresh catalog, the variant's defaults, the budgets, the
// uniform fault rate and seed, the exec worker pool, and then mutate —
// where a harness arms its own fault profile, durability, hedging or limits
// over those (nil leaves them as they are).
func (c Config) multistoreConfig(v multistore.Variant, mutate func(*multistore.Config)) (multistore.Config, *storage.Catalog, error) {
	cat, err := data.Generate(c.Data)
	if err != nil {
		return multistore.Config{}, nil, err
	}
	cfg := multistore.DefaultConfig(v)
	cfg.SetBudgets(cat, c.BudgetMultiple, c.TransferBudget)
	cfg.Faults = faults.Uniform(c.FaultRate)
	cfg.FaultSeed = c.FaultSeed
	cfg.ExecWorkers = c.ExecWorkers
	if mutate != nil {
		mutate(&cfg)
	}
	return cfg, cat, nil
}

// newSystem builds a system from multistoreConfig and registers the
// 32-query workload as its future workload.
func (c Config) newSystem(v multistore.Variant, mutate func(*multistore.Config)) (*multistore.System, error) {
	cfg, cat, err := c.multistoreConfig(v, mutate)
	if err != nil {
		return nil, err
	}
	sys := multistore.New(cfg, cat)
	if err := sys.ProvideFutureWorkload(workload.SQLs()); err != nil {
		return nil, err
	}
	return sys, nil
}

// runWorkload executes the full 32-query workload on a fresh system.
func (c Config) runWorkload(v multistore.Variant) (*multistore.System, error) {
	sys, err := c.newSystem(v, nil)
	if err != nil {
		return nil, err
	}
	if _, err := runSQLs(sys, workload.SQLs()); err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", v, err)
	}
	return sys, nil
}

// runSQLs submits the queries to the system in order and returns their
// reports; the first failure stops the run.
func runSQLs(sys *multistore.System, sqls []string) ([]*multistore.QueryReport, error) {
	reps := make([]*multistore.QueryReport, 0, len(sqls))
	for i, sql := range sqls {
		rep, err := sys.Run(sql)
		if err != nil {
			return nil, fmt.Errorf("query %d: %w", i, err)
		}
		reps = append(reps, rep)
	}
	return reps, nil
}

// runVariants runs the full workload on each variant in turn.
func runVariants(cfg Config, variants []multistore.Variant) ([]VariantOutcome, error) {
	var outs []VariantOutcome
	for _, v := range variants {
		sys, err := cfg.runWorkload(v)
		if err != nil {
			return nil, err
		}
		out := VariantOutcome{
			Variant: v,
			Metrics: sys.Metrics(),
			CumTTI:  cumulativeTTI(sys),
			Reports: sys.Reports(),
		}
		for _, r := range sys.Reports() {
			out.QueryTimes = append(out.QueryTimes, r.Total())
		}
		outs = append(outs, out)
	}
	return outs, nil
}

// tti returns the named variant's total TTI among the outcomes, or 0.
func tti(outcomes []VariantOutcome, v multistore.Variant) float64 {
	for _, o := range outcomes {
		if o.Variant == v {
			return o.Metrics.TTI()
		}
	}
	return 0
}

// cumulativeTTI reconstructs the per-query cumulative TTI series: ETL is
// paid before the first query, each reorganization before the query it
// precedes, then the query's own execution time.
func cumulativeTTI(sys *multistore.System) []float64 {
	reorgAt := map[int]float64{}
	for _, r := range sys.ReorgLog() {
		reorgAt[r.BeforeSeq] += r.Seconds
	}
	m := sys.Metrics()
	cum := m.ETL
	out := make([]float64, 0, len(sys.Reports()))
	for _, rep := range sys.Reports() {
		cum += reorgAt[rep.Seq]
		cum += rep.Total()
		out = append(out, cum)
	}
	return out
}

// Host is the envelope every machine-readable report opens with: where it
// was recorded and at what data scale.
type Host struct {
	GOOS   string `json:"goos"`
	GOARCH string `json:"goarch"`
	NumCPU int    `json:"num_cpu"`
	Scale  string `json:"scale"`
}

// host fills the envelope; Scale names the two known sizes and spells any
// other as its tweet count.
func (c Config) host() Host {
	scale := fmt.Sprintf("%d tweets", c.Data.NumTweets)
	switch c.Data.NumTweets {
	case data.SmallConfig().NumTweets:
		scale = "small"
	case data.DefaultConfig().NumTweets:
		scale = "paper"
	}
	return Host{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(), Scale: scale}
}

// WriteJSON renders a machine-readable report (one of the BENCH_*.json
// artifacts: BenchReport, GovernReport, ScenarioReport, CacheReport,
// EnduranceReport) as indented JSON.
func WriteJSON(w io.Writer, report any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}
