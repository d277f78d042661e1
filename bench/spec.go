package main

import (
	"encoding/json"
	"fmt"
	"os"

	"miso/internal/multistore"
)

// workload is one traffic mix. Every plane but reuse and durability
// (faults, governance limits, hedging, quotas, the adaptive limiter, the
// audit scrubber) stays at its zero value in all of them.
type workload struct {
	name    string
	variant multistore.Variant
	// served workloads run closed-loop clients behind serve.Server over one
	// long-lived System; the others run the 32 queries in paper order on a
	// fresh System per pass.
	served bool
	reuse  bool
	ingest bool
}

var workloads = []workload{
	{name: "analyst_seq", variant: multistore.VariantMSMiso},
	{name: "hv_scan", variant: multistore.VariantHVOnly},
	{name: "served_cold", variant: multistore.VariantMSMiso, served: true},
	{name: "served_hot", variant: multistore.VariantMSMiso, served: true, reuse: true},
	{name: "served_ingest", variant: multistore.VariantMSMiso, served: true, reuse: true, ingest: true},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// metric names one reported number and its unit.
type metric struct{ name, unit string }

// endToEnd is what an analyst or operator sees; measured with tracing off.
var endToEnd = []metric{
	{"setup_s", "s"},
	{"queries_per_s", "1/s"},
	{"query_p50_ms", "ms"},
	{"query_p95_ms", "ms"},
	{"cpu_ms_per_query", "ms"},
	{"alloc_kb_per_query", "KB"},
	{"heap_after_mb", "MB"},
	{"tti_sim_s", "s"},
}

// perLayer comes from the traced run. A metric that does not apply to a
// workload (no server, no reuse plane, no WAL) reads 0 there. Times are as
// measured, not scaled to nominal machine speed; machine.calib_ms is the
// calibration kernel's time in the same run.
var perLayer = []metric{
	{"reorg_p50_ms", "ms"},
	{"append_p50_ms", "ms"},
	{"serve.wait_ms_p50", "ms"},
	{"serve.wait_ms_p95", "ms"},
	{"serve.barrier_ms_p50", "ms"},
	{"serve.shed", "count"},
	{"multistore.run_ms_p50", "ms"},
	{"multistore.run_ms_p95", "ms"},
	{"multistore.self_ms_p50", "ms"},
	{"multistore.self_share", "ratio"},
	{"multistore.scaleup_2c", "ratio"},
	{"multistore.reports_end", "count"},
	{"multistore.append_dropped_mean", "count"},
	{"sqlparser.parse_us_p50", "us"},
	{"sqlparser.share", "ratio"},
	{"logical.build_us_p50", "us"},
	{"logical.plan_nodes_mean", "count"},
	{"logical.share", "ratio"},
	{"mqo.fingerprint_us_p50", "us"},
	{"mqo.share", "ratio"},
	{"mqo.hit_frac", "ratio"},
	{"mqo.piggyback_frac", "ratio"},
	{"mqo.subplan_hits", "count"},
	{"mqo.entries_end", "count"},
	{"optimizer.choose_ms_p50", "ms"},
	{"optimizer.share", "ratio"},
	{"optimizer.plans_mean", "count"},
	{"optimizer.split_frac", "ratio"},
	{"optimizer.bypass_hv_frac", "ratio"},
	{"hv.compute_ms_p50", "ms"},
	{"hv.compute_ms_p95", "ms"},
	{"hv.share", "ratio"},
	{"hv.sim_s", "s"},
	{"hv.new_views_mean", "count"},
	{"hv.views_end", "count"},
	{"hv.view_mb_end", "MB"},
	{"exec.extract_ms", "ms"},
	{"exec.filter_ms", "ms"},
	{"exec.project_ms", "ms"},
	{"exec.join_ms", "ms"},
	{"exec.aggregate_ms", "ms"},
	{"exec.distinct_ms", "ms"},
	{"exec.sort_ms", "ms"},
	{"exec.rows_in_per_query", "count"},
	{"exec.share", "ratio"},
	{"storage.checksum_ms_p50", "ms"},
	{"storage.share", "ratio"},
	{"transfer.mb_per_query", "MB"},
	{"transfer.moves", "count"},
	{"transfer.sim_s", "s"},
	{"dw.execute_ms_p50", "ms"},
	{"dw.share", "ratio"},
	{"dw.sim_s", "s"},
	{"dw.views_end", "count"},
	{"dw.view_mb_end", "MB"},
	{"dw.probe_skipped", "count"},
	{"core.reorg_ms_p50", "ms"},
	{"core.reorgs", "count"},
	{"core.moved_mb_total", "MB"},
	{"core.sim_tune_s", "s"},
	{"durability.wal_records", "count"},
	{"durability.checkpoints", "count"},
	{"durability.wal_append_us_p50", "us"},
	{"trace.overhead_frac", "ratio"},
	{"machine.calib_ms", "ms"},
}

// benchmarkFile mirrors BENCHMARK.json, where the regression bounds live.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []benchmarkMetric `json:"end_to_end"`
	PerLayer []benchmarkMetric `json:"per_layer"`
}

type benchmarkMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchmarkFile
	if err := json.Unmarshal(raw, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// checkAgainst reports the first disagreement between BENCHMARK.json and
// the tables above, so a renamed metric fails loudly instead of going
// unreported.
func (f *benchmarkFile) checkAgainst() error {
	if len(f.Workloads) != len(workloads) {
		return fmt.Errorf("BENCHMARK.json has %d workloads, the program %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].name {
			return fmt.Errorf("BENCHMARK.json workload %d is %q, the program's is %q", i, w.Name, workloads[i].name)
		}
	}
	for _, pair := range []struct {
		kind string
		file []benchmarkMetric
		prog []metric
	}{{"end_to_end", f.EndToEnd, endToEnd}, {"per_layer", f.PerLayer, perLayer}} {
		if len(pair.file) != len(pair.prog) {
			return fmt.Errorf("BENCHMARK.json has %d %s metrics, the program %d", len(pair.file), pair.kind, len(pair.prog))
		}
		for i, m := range pair.file {
			if m.Name != pair.prog[i].name || m.Unit != pair.prog[i].unit {
				return fmt.Errorf("BENCHMARK.json %s metric %d is %s [%s], the program's is %s [%s]",
					pair.kind, i, m.Name, m.Unit, pair.prog[i].name, pair.prog[i].unit)
			}
		}
	}
	return nil
}
