package experiments

import (
	"context"
	"io"
	"sort"

	"miso/internal/logical"
	"miso/internal/multistore"
	"miso/internal/optimizer"
	"miso/internal/transfer"
	"miso/internal/workload"
)

// Fig3Plan is one multistore plan (one unique split) for the profiled
// query, with its stacked cost components.
type Fig3Plan struct {
	// Label is H for the HV-only plan, B for the best plan, S for plans
	// at least 2x worse than HV-only (the paper's "bad plans"), blank
	// otherwise.
	Label string
	// Cuts is the number of migrated working sets.
	Cuts                       int
	HV, Dump, TransferLoad, DW float64
	TransferBytes              int64
}

// Total is the plan's end-to-end time.
func (p Fig3Plan) Total() float64 { return p.HV + p.Dump + p.TransferLoad + p.DW }

// Fig3Result is the execution-time profile of all multistore plans for a
// single complex query (A1v1) under an empty design, ordered by increasing
// total time — the paper's Figure 3.
type Fig3Result struct {
	Query string
	Plans []Fig3Plan
}

// Fig3 enumerates and costs every split plan for A1v1.
func Fig3(cfg Config) (*Fig3Result, error) {
	mcfg, cat, err := cfg.multistoreConfig(multistore.VariantMSBasic, nil)
	if err != nil {
		return nil, err
	}
	sys := multistore.New(mcfg, cat)

	q, _ := workload.ByName("A1v1")
	plan, err := logical.NewBuilder(cat).BuildSQL(q.SQL)
	if err != nil {
		return nil, err
	}
	// Warm the estimator with one real execution so plan costs reflect
	// observed intermediate sizes (the paper measured real executions).
	if _, err := sys.HV().ExecuteContext(context.Background(), plan, 0); err != nil {
		return nil, err
	}
	sys.HV().Views.Reset()

	res := &Fig3Result{Query: q.Name}
	plans := sys.Optimizer().EnumeratePlans(plan, optimizer.EmptyDesign())
	for _, mp := range plans {
		p := Fig3Plan{HV: mp.EstHV, DW: mp.EstDW, Cuts: len(mp.Cuts), TransferBytes: mp.EstTransferBytes}
		b := transfer.Cost(mp.EstTransferBytes)
		p.Dump = b.Dump
		p.TransferLoad = b.Network + b.Load
		if mp.HVOnly {
			p.Label = "H"
		}
		res.Plans = append(res.Plans, p)
	}
	sort.Slice(res.Plans, func(i, j int) bool { return res.Plans[i].Total() < res.Plans[j].Total() })
	// Mark the best plan and the bad plans.
	if len(res.Plans) > 0 && res.Plans[0].Label == "" {
		res.Plans[0].Label = "B"
	}
	var hvOnly float64
	for _, p := range res.Plans {
		if p.Label == "H" {
			hvOnly = p.Total()
		}
	}
	for i := range res.Plans {
		if res.Plans[i].Label == "" && hvOnly > 0 && res.Plans[i].Total() > 2*hvOnly {
			res.Plans[i].Label = "S"
		}
	}
	return res, nil
}

// WriteText renders the profile as the paper's stacked bars, one row per
// plan in increasing total order.
func (r *Fig3Result) WriteText(w io.Writer) {
	fprintf(w, "Figure 3: execution time profile of all multistore plans for %s\n", r.Query)
	fprintf(w, "%-4s %5s %10s %10s %14s %10s %12s\n",
		"mark", "cuts", "HV(s)", "DUMP(s)", "XFER+LOAD(s)", "DW(s)", "TOTAL(s)")
	for _, p := range r.Plans {
		fprintf(w, "%-4s %5d %10.0f %10.0f %14.0f %10.1f %12.0f\n",
			p.Label, p.Cuts, p.HV, p.Dump, p.TransferLoad, p.DW, p.Total())
	}
	if len(r.Plans) > 0 {
		best := r.Plans[0].Total()
		var hv float64
		bad := 0
		for _, p := range r.Plans {
			if p.Label == "H" {
				hv = p.Total()
			}
			if p.Label == "S" {
				bad++
			}
		}
		if hv > 0 {
			fprintf(w, "best plan B is %.0f%% faster than HV-only H; %d bad plans (S)\n",
				100*(hv-best)/hv, bad)
		}
	}
}

func fig3Summary(r *Fig3Result) (bestVsHV float64, badPlans int) {
	if len(r.Plans) == 0 {
		return 0, 0
	}
	best := r.Plans[0].Total()
	var hv float64
	for _, p := range r.Plans {
		if p.Label == "H" {
			hv = p.Total()
		}
		if p.Label == "S" {
			badPlans++
		}
	}
	if hv > 0 {
		bestVsHV = (hv - best) / hv
	}
	return bestVsHV, badPlans
}
