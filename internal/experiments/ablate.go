package experiments

import (
	"fmt"
	"io"

	"miso/internal/multistore"
	"miso/internal/workload"
)

// AblationRow is one MS-MISO run of the workload with one design choice changed.
type AblationRow struct {
	Name      string
	TTI, Tune float64
}

// AblationResult holds the tuner ablations of DESIGN.md §5.
type AblationResult struct{ Rows []AblationRow }

// Ablate runs the workload on MS-MISO at the paper's settings, then once per
// ablated choice: knapsack order, interaction analysis, epoch decay,
// Vh ∩ Vd = ∅, and three transfer budgets from binding to unbounded (at the
// small scale the workload's views are tens to hundreds of MB).
func Ablate(cfg Config) (*AblationResult, error) {
	bt := func(b int64) func(*multistore.Config) { return func(c *multistore.Config) { c.Tuner.Bt = b } }
	res := &AblationResult{}
	for _, a := range []struct {
		name   string
		mutate func(*multistore.Config)
	}{
		{"baseline", nil},
		{"hv-first", func(c *multistore.Config) { c.Tuner.HVFirst = true }},
		{"no-sparsify", func(c *multistore.Config) { c.Tuner.SkipSparsify = true }},
		{"no-decay", func(c *multistore.Config) { c.Decay = 1.0 }},
		{"replication", func(c *multistore.Config) { c.Tuner.AllowReplication = true }},
		{"Bt=64MB", bt(64 << 20)}, {"Bt=512MB", bt(512 << 20)}, {"Bt=10GB", bt(10 << 30)},
	} {
		sys, err := cfg.newSystem(multistore.VariantMSMiso, a.mutate)
		if err != nil {
			return nil, err
		}
		if _, err := runSQLs(sys, workload.SQLs()); err != nil {
			return nil, fmt.Errorf("experiments: ablation %s: %w", a.name, err)
		}
		m := sys.Metrics()
		res.Rows = append(res.Rows, AblationRow{a.name, m.TTI(), m.Tune})
	}
	return res, nil
}

// WriteText renders the ablations, one row each.
func (r *AblationResult) WriteText(w io.Writer) {
	fprintf(w, "Tuner ablations (MS-MISO, simulated seconds)\n%-12s %12s %10s\n", "ablation", "TTI", "TUNE")
	for _, row := range r.Rows {
		fprintf(w, "%-12s %12.3f %10.3f\n", row.Name, row.TTI, row.Tune)
	}
}
