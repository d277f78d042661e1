// Overload scenario rows: the shed/quota/breaker/hedge stack measured
// under stress instead of Figure-3–9 replays. Each row serves a fresh
// system with an open-loop, phase-structured load — flash-crowd ramps,
// Zipf tenant skew, diurnal curves, drift bursts forcing reorganization
// churn, ETL append storms, and a DW brownout exercising hedged execution —
// and the report carries goodput, shed rate, per-tenant fairness, hedge
// wins and latency percentiles per phase, written as BENCH_scenarios.json
// by misobench -mode scenarios -out <dir>.
package experiments

import (
	"fmt"
	"math"
	"time"

	"miso/internal/faults"
	"miso/internal/multistore"
	"miso/internal/serve"
	"miso/internal/workload"
)

// zipfRates distributes total QPS across n tenants by a Zipf law with the
// given exponent (rank-1 hottest). Exponent 0 is uniform.
func zipfRates(n int, total, exponent float64) map[string]float64 {
	weights := make([]float64, n)
	sum := 0.0
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), exponent)
		sum += weights[i]
	}
	rates := make(map[string]float64, n)
	for i, w := range weights {
		rates[fmt.Sprintf("t%d", i)] = total * w / sum
	}
	return rates
}

// scenarioRows calibrates the backend's serial capacity once, on a
// throwaway system running 8 queries in order, then builds the six rows,
// whose offered rates are multiples of it (the backend executes one query
// at a time, so offered rates are set relative to its serial throughput
// regardless of worker count). Each phase lasts -dur (2s by default).
func scenarioRows(c Config, sh Shape) (layout, []row, error) {
	sqls := workload.SQLs()
	cal, err := c.runRow(row{name: "calibrate", phases: []phase{sequential(sqls[:8])}}, nil, &digestCheck{})
	if err != nil {
		return layout{}, nil, fmt.Errorf("calibration: %w", err)
	}
	capQPS := cal.Phases[0].GoodputQPS
	dur := orDefault(sh.Dur, 2*time.Second)
	ph := func(name string, rates map[string]float64, sqlOffset int) phase {
		return phase{name: name, open: openLoop{rates: rates, dur: dur, next: func(tenant string, i int) request {
			// sqlOffset rotates which part of the workload the phase draws
			// from (drift: a new phase asks different queries).
			return request{tenant: tenant, sql: sqls[(sqlOffset+i)%len(sqls)]}
		}}}
	}
	one := func(tenant string, rate float64) map[string]float64 { return map[string]float64{tenant: rate} }
	// extras completes a row's frontend with the shared workers, queue
	// depth and 10s query deadline.
	extras := func(sc serve.Config) serve.Config {
		sc.Workers, sc.QueueDepth, sc.QueryTimeout = 4, 8, 10*time.Second
		return sc
	}

	// zipf-skew: equal-weight quotas sized so cold tenants never touch
	// their buckets while the hot tenant's surge drains only its own. The
	// cold tenants' offered rate is identical across phases so their
	// goodput comparison isolates the hot tenant's effect.
	const tenants = 4
	base, skewed := map[string]float64{}, map[string]float64{}
	for i := 0; i < tenants; i++ {
		t := fmt.Sprintf("t%d", i)
		base[t], skewed[t] = 0.1*capQPS, 0.1*capQPS
	}
	skewed["t0"] = zipfRates(tenants, 2.5*capQPS, 1.5)["t0"]
	coldServed := func(p *tally) (n int) {
		for t, served := range p.TenantServed {
			if t != "t0" {
				n += served
			}
		}
		return n
	}

	var diurnal []phase
	for i, frac := range []float64{0.3, 0.9, 1.4, 0.9, 0.3} {
		diurnal = append(diurnal, ph(fmt.Sprintf("hour-%d", i), one("diurnal", frac*capQPS), 4*i))
	}
	drift := []phase{
		ph("mix-a", one("drift", 0.5*capQPS), 0),
		ph("drift-1", one("drift", 0.5*capQPS), 11),
		ph("drift-2", one("drift", 0.5*capQPS), 22),
	}
	drift[1].reorg, drift[2].reorg = true, true
	etl := []phase{ph("calm", one("etl", 0.5*capQPS), 0), ph("storm", one("etl", 0.5*capQPS), 0)}
	etl[1].storm = true

	rows := []row{{
		name: "flash-crowd", desc: "4x offered overload absorbed as sheds, goodput holds",
		serve: extras(serve.Config{}),
		phases: []phase{
			ph("warm", one("crowd", 0.5*capQPS), 0),
			ph("crowd-4x", one("crowd", 4*capQPS), 0),
			ph("recover", one("crowd", 0.5*capQPS), 8),
		},
		// No congestion collapse: overload goodput holds at >= 80% of warm
		// goodput, overload is absorbed as explicit sheds, and the p99 of
		// served queries stays under the deadline (timeouts count as
		// Failed, not Served).
		checks: []check{{"goodput-holds", func(o *Outcome) (bool, string) {
			warmG, crowdG, sheds := o.Phases[0].GoodputQPS, o.Phases[1].GoodputQPS, o.Phases[1].Shed
			return crowdG >= 0.8*warmG && sheds > 0,
				fmt.Sprintf("crowd goodput %.1f/s vs warm %.1f/s (need >= 80%%), %d sheds during crowd", crowdG, warmG, sheds)
		}}},
	}, {
		name: "zipf-skew", desc: "hot tenant sheds against its own quota, cold tenants unharmed",
		serve:  extras(serve.Config{Quota: serve.QuotaConfig{RatePerSec: 0.8 * capQPS, Burst: 4}}),
		phases: []phase{ph("baseline", base, 0), ph("skew", skewed, 0)},
		// Cold tenants' served counts may drop at most 10% from baseline to
		// skew, while the hot tenant sheds against its own bucket.
		checks: []check{{"cold-unharmed", func(o *Outcome) (bool, string) {
			coldBase, coldSkew := coldServed(o.Phases[0]), coldServed(o.Phases[1])
			hotShed := o.Phases[1].TenantShed["t0"]
			return hotShed > 0 && float64(coldSkew) >= 0.9*float64(coldBase),
				fmt.Sprintf("cold served %d baseline -> %d under skew (need >= 90%%), hot shed %d", coldBase, coldSkew, hotShed)
		}}},
	}, {
		name: "diurnal", desc: "sinusoidal offered load under the adaptive limit",
		serve:  extras(serve.Config{Adaptive: serve.AdaptiveConfig{TargetP99: 5 * time.Second, Window: 16}}),
		phases: diurnal,
		// The trough after the peak recovers: final-phase goodput within
		// 50% of the first trough's, and nothing hard-failed along the
		// curve.
		checks: []check{{"trough-recovers", func(o *Outcome) (bool, string) {
			first, last := o.Phases[0].GoodputQPS, o.Phases[len(o.Phases)-1].GoodputQPS
			return first > 0 && last >= 0.5*first,
				fmt.Sprintf("trough goodput %.1f/s -> %.1f/s through the peak", first, last)
		}}},
	}, {
		name: "drift-burst", desc: "query-mix drift with reorganization churn between phases",
		serve:  extras(serve.Config{DrainTimeout: 2 * time.Second}),
		phases: drift,
		// Reorg churn between drifted mixes must not wedge the plane: both
		// reorgs complete and the drifted phases keep serving.
		checks: []check{{"churn-serves", func(o *Outcome) (bool, string) {
			p := o.Phases
			return o.Serve.Reorgs >= 2 && p[1].Served > 0 && p[2].Served > 0,
				fmt.Sprintf("%d reorgs; served %d/%d/%d across drift phases", o.Serve.Reorgs, p[0].Served, p[1].Served, p[2].Served)
		}}},
	}, {
		name: "etl-storm", desc: "append storm racing live queries",
		serve:  extras(serve.Config{}),
		phases: etl,
		// Appends invalidate views and race queries through the backend's
		// serialization; the plane must keep serving with invariants
		// intact.
		checks: []check{{"storm-serves", func(o *Outcome) (bool, string) {
			storm := o.Phases[1]
			return storm.Served > 0, fmt.Sprintf("storm-phase served %d of %d offered", storm.Served, storm.Submitted)
		}}},
	}, {
		name: "dw-brownout", desc: "DW fault storm with hedged HV execution",
		// DW-side faults force retry exhaustion on a fraction of split
		// plans; hedging (aggressive threshold so every DW phase races a
		// shadow) converts those fallbacks into committed shadows.
		mutate: func(mc *multistore.Config) {
			mc.Faults = faults.Profile{}.With(faults.SiteDWQuery, 0.45)
			mc.FaultSeed = 7
			mc.Retry = faults.RetryPolicy{MaxAttempts: 2, BaseBackoff: 1, BackoffFactor: 2, MaxBackoff: 4}
			mc.Hedge = multistore.HedgeConfig{Enabled: true, Multiplier: 0.001, MinDelay: time.Nanosecond}
		},
		serve:  extras(serve.Config{}),
		phases: []phase{ph("brownout", one("brown", 0.5*capQPS), 0), ph("brownout-2", one("brown", 0.5*capQPS), 16)},
		// The brownout keeps serving, and at least one exhausted DW query
		// completed from its hedge shadow instead of a serial re-execution.
		checks: []check{{"hedge-wins", func(o *Outcome) (bool, string) {
			return o.Serve.Completed > 0 && o.System.HedgeWins >= 1,
				fmt.Sprintf("hedges %d, wins %d under DW fault storm", o.System.Hedges, o.System.HedgeWins)
		}}},
	}}
	title := fmt.Sprintf("overload scenario matrix (%s, calibrated %.1f q/s)", c.host(), capQPS)
	return layout{title: title}, rows, nil
}
