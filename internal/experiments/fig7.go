package experiments

import (
	"io"

	"miso/internal/multistore"
)

// Fig7Variants is the tuning-technique lineup of the paper's Figure 7.
var Fig7Variants = []multistore.Variant{
	multistore.VariantMSBasic,
	multistore.VariantMSOff,
	multistore.VariantMSLru,
	multistore.VariantMSMiso,
	multistore.VariantMSOra,
}

// Fig7Result compares multistore tuning techniques under constrained
// budgets (0.125x storage, Bt as configured).
type Fig7Result struct {
	Outcomes []VariantOutcome
}

// Fig7 runs the tuning comparison. The paper uses Bh=Bd=0.125x with
// Bt=10GB, "a more constrained environment".
func Fig7(cfg Config) (*Fig7Result, error) {
	cfg.BudgetMultiple = 0.125
	outs, err := runVariants(cfg, Fig7Variants)
	if err != nil {
		return nil, err
	}
	return &Fig7Result{Outcomes: outs}, nil
}

// TTI returns the named variant's TTI, or 0.
func (r *Fig7Result) TTI(v multistore.Variant) float64 { return tti(r.Outcomes, v) }

// WriteText renders the comparison.
func (r *Fig7Result) WriteText(w io.Writer) {
	fprintf(w, "Figure 7: TTI comparison of multistore tuning techniques (0.125x budgets)\n")
	fprintf(w, "%-9s %10s %10s %10s %10s %12s\n",
		"variant", "DW-EXE", "TRANSFER", "TUNE", "HV-EXE", "TTI")
	for _, o := range r.Outcomes {
		m := o.Metrics
		fprintf(w, "%-9s %10.0f %10.0f %10.0f %10.0f %12.0f\n",
			o.Variant, m.DWExe, m.Transfer, m.Tune, m.HVExe, m.TTI())
	}
	labels := make([]string, len(r.Outcomes))
	rows := make([][]float64, len(r.Outcomes))
	for i, o := range r.Outcomes {
		labels[i] = string(o.Variant)
		m := o.Metrics
		rows[i] = []float64{m.DWExe, m.Transfer, m.Tune, m.HVExe}
	}
	asciiStackedBars(w, labels, rows, []string{"DW-EXE", "TRANSFER", "TUNE", "HV-EXE"})
	miso := r.TTI(multistore.VariantMSMiso)
	if miso > 0 {
		fprintf(w, "MS-MISO improvement: %.0f%% over MS-OFF, %.0f%% over MS-LRU; %.0f%% behind MS-ORA\n",
			100*(r.TTI(multistore.VariantMSOff)-miso)/r.TTI(multistore.VariantMSOff),
			100*(r.TTI(multistore.VariantMSLru)-miso)/r.TTI(multistore.VariantMSLru),
			100*(miso-r.TTI(multistore.VariantMSOra))/miso)
	}
}
