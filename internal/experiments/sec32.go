package experiments

import (
	"io"

	"miso/internal/multistore"
	"miso/internal/workload"
)

// Sec32Result is the two-query motivating experiment of Section 3.2:
// queries q1=A1v2 and q2=A1v3 (consecutive versions from the same analyst)
// under HV-ONLY, MS-BASIC, and MS-MISO with a reorganization between them.
type Sec32Result struct {
	// Totals[variant] = [q1 time, q2 time, tune time].
	Totals map[multistore.Variant][3]float64
}

// Sec32 runs the motivation experiment.
func Sec32(cfg Config) (*Sec32Result, error) {
	q1, _ := workload.ByName("A1v2")
	q2, _ := workload.ByName("A1v3")
	res := &Sec32Result{Totals: map[multistore.Variant][3]float64{}}
	for _, v := range []multistore.Variant{
		multistore.VariantHVOnly, multistore.VariantMSBasic, multistore.VariantMSMiso,
	} {
		// Trigger the reorganization phase between q1 and q2, as the
		// paper does for this experiment.
		sys, err := cfg.newSystem(v, func(mc *multistore.Config) { mc.ReorgEvery = 1 })
		if err != nil {
			return nil, err
		}
		reps, err := runSQLs(sys, []string{q1.SQL, q2.SQL})
		if err != nil {
			return nil, err
		}
		res.Totals[v] = [3]float64{reps[0].Total(), reps[1].Total(), sys.Metrics().Tune}
	}
	return res, nil
}

// WriteText renders the stacked two-query comparison.
func (r *Sec32Result) WriteText(w io.Writer) {
	fprintf(w, "Section 3.2: q1 (A1v2) then q2 (A1v3) with a reorganization between\n")
	fprintf(w, "%-9s %10s %10s %10s %12s\n", "variant", "q1(s)", "q2(s)", "tune(s)", "total(s)")
	for _, v := range []multistore.Variant{
		multistore.VariantHVOnly, multistore.VariantMSBasic, multistore.VariantMSMiso,
	} {
		t := r.Totals[v]
		fprintf(w, "%-9s %10.0f %10.0f %10.0f %12.0f\n", v, t[0], t[1], t[2], t[0]+t[1]+t[2])
	}
	hv := r.Totals[multistore.VariantHVOnly]
	miso := r.Totals[multistore.VariantMSMiso]
	if sum := miso[0] + miso[1] + miso[2]; sum > 0 {
		fprintf(w, "MS-MISO speedup over HV-ONLY: %.1fx\n", (hv[0]+hv[1])/sum)
	}
}
