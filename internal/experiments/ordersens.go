package experiments

import (
	"io"

	"miso/internal/multistore"
	"miso/internal/workload"
)

// OrderSensResult is an experiment beyond the paper: how sensitive is each
// tuning approach to the workload's submission order? The sequential order
// (each analyst's versions consecutive) has the locality the sliding-window
// tuner exploits; the interleaved order (round-robin across analysts) is
// adversarial for it. HV-OP, whose LRU retention has no window, serves as
// the control.
type OrderSensResult struct {
	// TTIs[variant] = [sequential, interleaved].
	TTIs map[multistore.Variant][2]float64
}

// OrderSensVariants are the systems compared.
var OrderSensVariants = []multistore.Variant{
	multistore.VariantHVOp,
	multistore.VariantMSMiso,
}

// OrderSensitivity runs the workload in both submission orders.
func OrderSensitivity(cfg Config) (*OrderSensResult, error) {
	res := &OrderSensResult{TTIs: map[multistore.Variant][2]float64{}}
	orders := [][]workload.Query{workload.Evolving(), workload.Interleaved()}
	for _, v := range OrderSensVariants {
		var ttis [2]float64
		for oi, order := range orders {
			sys, err := cfg.newSystem(v, nil)
			if err != nil {
				return nil, err
			}
			sqls := make([]string, len(order))
			for i, q := range order {
				sqls[i] = q.SQL
			}
			if err := sys.ProvideFutureWorkload(sqls); err != nil {
				return nil, err
			}
			if _, err := runSQLs(sys, sqls); err != nil {
				return nil, err
			}
			ttis[oi] = sys.Metrics().TTI()
		}
		res.TTIs[v] = ttis
	}
	return res, nil
}

// WriteText renders the comparison.
func (r *OrderSensResult) WriteText(w io.Writer) {
	fprintf(w, "Order sensitivity (extension): sequential vs interleaved submission\n")
	fprintf(w, "%-9s %14s %14s %10s\n", "variant", "sequential(s)", "interleaved(s)", "penalty")
	for _, v := range OrderSensVariants {
		t := r.TTIs[v]
		penalty := 0.0
		if t[0] > 0 {
			penalty = 100 * (t[1] - t[0]) / t[0]
		}
		fprintf(w, "%-9s %14.0f %14.0f %9.0f%%\n", v, t[0], t[1], penalty)
	}
}
