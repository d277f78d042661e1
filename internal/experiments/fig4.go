package experiments

import (
	"io"

	"miso/internal/multistore"
)

// VariantOutcome is one system's full-workload result.
type VariantOutcome struct {
	Variant multistore.Variant
	Metrics multistore.Metrics
	// CumTTI is the cumulative TTI after each completed query (Fig 5a).
	CumTTI []float64
	// QueryTimes are the per-query execution times (Fig 5b).
	QueryTimes []float64
	// Reports are the raw per-query reports (Fig 6).
	Reports []*multistore.QueryReport
}

// Fig4Result compares the five system variants of Figure 4; the same runs
// feed the CDFs of Figure 5.
type Fig4Result struct {
	Outcomes []VariantOutcome
}

// Fig4Variants is the lineup of the paper's Figure 4.
var Fig4Variants = []multistore.Variant{
	multistore.VariantHVOnly,
	multistore.VariantDWOnly,
	multistore.VariantMSBasic,
	multistore.VariantHVOp,
	multistore.VariantMSMiso,
}

// Fig4 runs the full workload on each variant.
func Fig4(cfg Config) (*Fig4Result, error) {
	outs, err := runVariants(cfg, Fig4Variants)
	if err != nil {
		return nil, err
	}
	return &Fig4Result{Outcomes: outs}, nil
}

// TTI returns the named variant's total TTI, or 0.
func (r *Fig4Result) TTI(v multistore.Variant) float64 { return tti(r.Outcomes, v) }

// Outcome returns the named variant's outcome, or nil.
func (r *Fig4Result) Outcome(v multistore.Variant) *VariantOutcome {
	for i := range r.Outcomes {
		if r.Outcomes[i].Variant == v {
			return &r.Outcomes[i]
		}
	}
	return nil
}

// WriteText renders the Figure 4 stacked-bar data.
func (r *Fig4Result) WriteText(w io.Writer) {
	fprintf(w, "Figure 4: TTI for 5 system variants (simulated seconds)\n")
	fprintf(w, "%-9s %10s %10s %10s %10s %10s %12s\n",
		"variant", "DW-EXE", "TRANSFER", "TUNE", "HV-EXE", "ETL", "TTI")
	for _, o := range r.Outcomes {
		m := o.Metrics
		fprintf(w, "%-9s %10.0f %10.0f %10.0f %10.0f %10.0f %12.0f\n",
			o.Variant, m.DWExe, m.Transfer, m.Tune, m.HVExe, m.ETL, m.TTI())
	}
	base := r.TTI(multistore.VariantHVOnly)
	if base > 0 {
		fprintf(w, "speedup vs HV-ONLY:")
		for _, o := range r.Outcomes {
			fprintf(w, "  %s %.2fx", o.Variant, base/o.Metrics.TTI())
		}
		fprintf(w, "\n")
	}
	labels := make([]string, len(r.Outcomes))
	rows := make([][]float64, len(r.Outcomes))
	for i, o := range r.Outcomes {
		labels[i] = string(o.Variant)
		m := o.Metrics
		rows[i] = []float64{m.DWExe, m.Transfer, m.Tune, m.HVExe, m.ETL}
	}
	asciiStackedBars(w, labels, rows, []string{"DW-EXE", "TRANSFER", "TUNE", "HV-EXE", "ETL"})
}
