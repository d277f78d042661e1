package experiments

import (
	"io"

	"miso/internal/bgwork"
	"miso/internal/data"
	"miso/internal/dw"
	"miso/internal/multistore"
	"miso/internal/sim"
	"miso/internal/stats"
)

// Fig9Result is the spare-capacity experiment: the MS-MISO run replayed
// against a DW with 40% spare IO capacity.
type Fig9Result struct {
	Outcome *sim.Outcome
}

// BuildTimeline converts an MS-MISO run into the event sequence of the
// Section 5.4 experiment: reorganization transfers (R), per-query HV
// phases, working-set transfers (T), and DW execution (Q).
func BuildTimeline(sys *multistore.System) []sim.Event {
	reorgAt := map[int]float64{}
	for _, r := range sys.ReorgLog() {
		reorgAt[r.BeforeSeq] += r.Seconds
	}
	recoveryAt := map[int]float64{}
	for _, r := range sys.ReorgLog() {
		recoveryAt[r.BeforeSeq] += r.RecoverySeconds
	}
	var events []sim.Event
	for _, rep := range sys.Reports() {
		if s := reorgAt[rep.Seq]; s > 0 {
			events = append(events, sim.Event{Kind: sim.EventReorg, Seconds: s})
		}
		if s := recoveryAt[rep.Seq]; s > 0 {
			events = append(events, sim.Event{Kind: sim.EventRecovery, Seconds: s})
		}
		if rep.HVSeconds > 0 {
			kind := sim.EventHV
			if rep.Degraded {
				kind = sim.EventDegraded
			}
			events = append(events, sim.Event{Kind: kind, Seconds: rep.HVSeconds})
		}
		if rep.TransferSeconds > 0 {
			events = append(events, sim.Event{Kind: sim.EventTransfer, Seconds: rep.TransferSeconds})
		}
		if rep.DWSeconds > 0 {
			events = append(events, sim.Event{Kind: sim.EventDW, Seconds: rep.DWSeconds})
		}
		if rep.RecoverySeconds > 0 {
			events = append(events, sim.Event{Kind: sim.EventRecovery, Seconds: rep.RecoverySeconds})
		}
	}
	return events
}

// measuredScenarios loads the TPC-DS-like reporting mart into a dedicated
// DW instance (the warehouse's business data, distinct from the multistore
// design) and measures q3/q83 latencies to parameterize the contention
// scenarios.
func measuredScenarios() ([]sim.Background, error) {
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		return nil, err
	}
	est := stats.NewEstimator(cat)
	store := dw.NewStore(est, 0)
	w, err := bgwork.Load(bgwork.DefaultConfig(), store, est)
	if err != nil {
		return nil, err
	}
	q3, q83, err := w.MeasureLatencies()
	if err != nil {
		return nil, err
	}
	return sim.ScenariosWithLatencies(q3, q83), nil
}

// Fig9 runs MS-MISO and simulates it against the 40%-spare-IO background,
// whose reporting-query latency is measured from the bgwork mart.
func Fig9(cfg Config) (*Fig9Result, error) {
	sys, err := cfg.runWorkload(multistore.VariantMSMiso)
	if err != nil {
		return nil, err
	}
	scenarios, err := measuredScenarios()
	if err != nil {
		return nil, err
	}
	events := BuildTimeline(sys)
	return &Fig9Result{Outcome: sim.Simulate(events, scenarios[0], 10)}, nil
}

// WriteText renders the resource and latency timelines (downsampled) and
// the summary statistics.
func (r *Fig9Result) WriteText(w io.Writer) {
	o := r.Outcome
	fprintf(w, "Figure 9: multistore workload on a DW with %s\n", o.Background.Name)
	fprintf(w, "(a) resource consumption and (b) background query latency over time\n")
	fprintf(w, "%10s %6s %6s %10s %-8s\n", "t(s)", "IO%", "CPU%", "bg lat(s)", "phase")
	phase := map[sim.EventKind]string{
		sim.EventHV: "Q(hv)", sim.EventTransfer: "T", sim.EventReorg: "R",
		sim.EventDW: "Q(dw)", sim.EventIdle: "idle", sim.EventRecovery: "rec",
		sim.EventDegraded: "Q(deg)",
	}
	// Downsample to at most ~120 rows, but always include phase changes.
	step := len(o.Samples) / 120
	if step < 1 {
		step = 1
	}
	var lastKind sim.EventKind = -1
	for i, s := range o.Samples {
		if i%step != 0 && s.Kind == lastKind {
			continue
		}
		lastKind = s.Kind
		fprintf(w, "%10.0f %5.0f%% %5.0f%% %10.2f %-8s\n",
			s.T, 100*s.IO, 100*s.CPU, s.BgLatency, phase[s.Kind])
	}
	fprintf(w, "average background latency %.2fs (base %.2fs, +%.1f%%); peak %.2fs\n",
		o.AvgBgLatency, o.Background.BaseLatency, o.BgSlowdownPct, o.PeakBgLatency)
	fprintf(w, "multistore workload slowdown vs empty DW: %.1f%%\n", o.MsSlowdownPct)
}
