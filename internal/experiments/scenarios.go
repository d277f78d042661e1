// Overload scenario matrix: the shed/quota/breaker/hedge stack measured
// under stress instead of Figure-3–9 replays. Each scenario drives one
// serve.Server over a fresh system with an open-loop, phase-structured
// workload generator — flash-crowd ramps, Zipf tenant skew, diurnal
// curves, drift bursts forcing reorganization churn, ETL append storms,
// and a DW brownout exercising hedged execution — and reports goodput,
// shed rate, per-tenant fairness, hedge wins, and latency percentiles per
// phase, written as BENCH_scenarios.json by misobench -scenarios.
package experiments

import (
	"fmt"
	"io"
	"math"
	"sync"
	"time"

	"miso/internal/data"
	"miso/internal/faults"
	"miso/internal/multistore"
	"miso/internal/serve"
	"miso/internal/workload"
)

// ScenarioConfig parameterizes the scenario matrix.
type ScenarioConfig struct {
	Config
	// Workers / Queue configure the serving frontend for every scenario.
	Workers int
	Queue   int
	// PhaseDur is the wall-clock length of one workload phase.
	PhaseDur time.Duration
	// Seed drives every random choice the generator makes.
	Seed int64
}

// DefaultScenarios returns the CI shape: small data, short phases.
func DefaultScenarios(base Config) ScenarioConfig {
	return ScenarioConfig{Config: base, Workers: 4, Queue: 8, PhaseDur: 2 * time.Second, Seed: 7}
}

// PhaseResult is one phase's aggregate outcome. Queries are attributed
// to the phase that submitted them.
type PhaseResult struct {
	Name       string  `json:"name"`
	OfferedQPS float64 `json:"offered_qps"`
	Submitted  int     `json:"submitted"`
	Served     int     `json:"served"`
	Shed       int     `json:"shed"`
	Failed     int     `json:"failed"`
	GoodputQPS float64 `json:"goodput_qps"`
	P50Ms      float64 `json:"p50_ms"`
	P99Ms      float64 `json:"p99_ms"`
	// TenantServed / TenantShed break the phase down per tenant.
	TenantServed map[string]int `json:"tenant_served,omitempty"`
	TenantShed   map[string]int `json:"tenant_shed,omitempty"`
}

// TenantOutcome is one tenant's totals across a scenario.
type TenantOutcome struct {
	Tenant     string  `json:"tenant"`
	Submitted  int     `json:"submitted"`
	Served     int     `json:"served"`
	Shed       int     `json:"shed"`
	GoodputQPS float64 `json:"goodput_qps"`
}

// ScenarioResult is one scenario's report plus its pass verdict.
type ScenarioResult struct {
	Name        string          `json:"name"`
	Description string          `json:"description"`
	Phases      []PhaseResult   `json:"phases"`
	Tenants     []TenantOutcome `json:"tenants,omitempty"`
	// FairnessRatio is max/min per-tenant goodput across tenants that
	// submitted (1.0 is perfectly fair; 0 when fewer than two tenants).
	FairnessRatio float64 `json:"fairness_ratio,omitempty"`
	Hedges        int     `json:"hedges,omitempty"`
	HedgeWins     int     `json:"hedge_wins,omitempty"`
	Sheds         int     `json:"sheds"`
	QuotaSheds    int     `json:"quota_sheds"`
	Degraded      int     `json:"degraded"`
	Reorgs        int     `json:"reorgs"`
	LimitDecs     int     `json:"limit_decreases"`
	Pass          bool    `json:"pass"`
	Notes         string  `json:"notes,omitempty"`
}

// ScenarioReport is the machine-readable matrix report
// (BENCH_scenarios.json).
type ScenarioReport struct {
	Host
	CalibratedQPS float64          `json:"calibrated_qps"`
	Scenarios     []ScenarioResult `json:"scenarios"`
}

// WriteText renders the report as a plain-text table.
func (r *ScenarioReport) WriteText(w io.Writer) {
	fprintf(w, "overload scenario matrix (%s/%s, %d CPU, scale=%s, calibrated %.1f q/s)\n",
		r.GOOS, r.GOARCH, r.NumCPU, r.Scale, r.CalibratedQPS)
	for _, s := range r.Scenarios {
		verdict := "PASS"
		if !s.Pass {
			verdict = "FAIL"
		}
		fprintf(w, "\n%s [%s] — %s\n", s.Name, verdict, s.Description)
		fprintf(w, "  %-12s %9s %6s %6s %6s %9s %9s %9s\n",
			"phase", "offered", "sub", "served", "shed", "goodput", "p50", "p99")
		for _, p := range s.Phases {
			fprintf(w, "  %-12s %7.1f/s %6d %6d %6d %7.1f/s %7.1fms %7.1fms\n",
				p.Name, p.OfferedQPS, p.Submitted, p.Served, p.Shed, p.GoodputQPS, p.P50Ms, p.P99Ms)
		}
		for _, t := range s.Tenants {
			fprintf(w, "  tenant %-8s submitted %4d served %4d shed %4d (%.1f q/s)\n",
				t.Tenant, t.Submitted, t.Served, t.Shed, t.GoodputQPS)
		}
		if s.Hedges > 0 || s.HedgeWins > 0 {
			fprintf(w, "  hedges %d (wins %d)\n", s.Hedges, s.HedgeWins)
		}
		fprintf(w, "  sheds %d (quota %d), degraded %d, reorgs %d, limit decreases %d\n",
			s.Sheds, s.QuotaSheds, s.Degraded, s.Reorgs, s.LimitDecs)
		if s.Notes != "" {
			fprintf(w, "  %s\n", s.Notes)
		}
	}
}

// Passed reports whether every scenario met its criteria.
func (r *ScenarioReport) Passed() bool {
	for _, s := range r.Scenarios {
		if !s.Pass {
			return false
		}
	}
	return true
}

// phaseSpec is one phase of offered load: per-tenant rates in queries per
// second for PhaseDur, optionally preceded by an online reorganization or
// accompanied by an ETL append storm.
type phaseSpec struct {
	name     string
	rates    map[string]float64
	reorg    bool
	etlStorm bool
	// sqlOffset rotates which part of the 32-query workload this phase
	// draws from (drift: a new phase asks different queries).
	sqlOffset int
}

// calibrate measures the backend's serial query throughput (the backend
// executes one query at a time, so offered rates are set relative to
// 1/meanLatency regardless of worker count).
func calibrate(sys *multistore.System) (float64, error) {
	const n = 8
	sqls := workload.SQLs()
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := sys.Run(sqls[i%len(sqls)]); err != nil {
			return 0, fmt.Errorf("experiments: calibration query %d: %w", i, err)
		}
	}
	mean := time.Since(start) / time.Duration(n)
	if mean <= 0 {
		mean = time.Millisecond
	}
	return float64(time.Second) / float64(mean), nil
}

// runPhase offers one phase's load open-loop and reports it once every
// submission has resolved. Queries are attributed to the phase that
// submitted them.
func runPhase(d *driver, sys *multistore.System, ph phaseSpec, dur time.Duration) (PhaseResult, error) {
	if ph.reorg {
		if err := d.srv.Reorganize(); err != nil {
			return PhaseResult{}, fmt.Errorf("reorg before %s: %w", ph.name, err)
		}
	}
	d.tally = newTally()
	stopStorm := make(chan struct{})
	var stormWG sync.WaitGroup
	if ph.etlStorm {
		stormWG.Add(1)
		go etlStorm(sys, stopStorm, &stormWG, d.tally.fail)
	}
	sqls := workload.SQLs()
	d.open(openLoop{rates: ph.rates, dur: dur, next: func(tenant string, i int) request {
		return request{tenant: tenant, sql: sqls[(ph.sqlOffset+i)%len(sqls)]}
	}})
	close(stopStorm)
	stormWG.Wait()

	t := d.tally
	res := PhaseResult{
		Name:      ph.name,
		Submitted: t.submitted, Served: t.served, Shed: t.shed, Failed: t.failed,
		GoodputQPS:   float64(t.served) / dur.Seconds(),
		P50Ms:        float64(t.percentile(50)) / float64(time.Millisecond),
		P99Ms:        float64(t.percentile(99)) / float64(time.Millisecond),
		TenantServed: t.tenantServed, TenantShed: t.tenantShed,
	}
	for _, r := range ph.rates {
		res.OfferedQPS += r
	}
	return res, t.check()
}

// etlStorm appends records to the tweets log in a tight loop until
// stopped — the update path racing live queries through the backend's
// serialization.
func etlStorm(sys *multistore.System, stop <-chan struct{}, wg *sync.WaitGroup, fail func(error)) {
	defer wg.Done()
	id := int64(10_000_000)
	for {
		select {
		case <-stop:
			return
		default:
		}
		lines := make([]string, 0, 4)
		for i := 0; i < 4; i++ {
			id++
			lines = append(lines, fmt.Sprintf(
				`{"tweet_id":%d,"user_id":1,"ts":1357000000,"text":"storm #etl","hashtag":"etl","lang":"en","retweets":1,"followers":10}`, id))
		}
		if _, err := sys.AppendToLog(data.TweetsLog, lines); err != nil {
			fail(fmt.Errorf("etl storm append: %w", err))
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// tenantOutcomes converts the server's tenant ledgers, computing goodput
// over the scenario's total duration and the max/min fairness ratio.
func tenantOutcomes(srv *serve.Server, total time.Duration) ([]TenantOutcome, float64) {
	stats := srv.TenantStats()
	out := make([]TenantOutcome, 0, len(stats))
	minG, maxG := math.Inf(1), 0.0
	for _, t := range stats {
		g := float64(t.Served) / total.Seconds()
		out = append(out, TenantOutcome{
			Tenant: t.Tenant, Submitted: t.Submitted, Served: t.Served,
			Shed: t.Shed, GoodputQPS: g,
		})
		if g < minG {
			minG = g
		}
		if g > maxG {
			maxG = g
		}
	}
	if len(out) < 2 || minG <= 0 {
		return out, 0
	}
	return out, maxG / minG
}

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

// scenario is one row of the matrix: what differs from the shared
// serving and backend configuration, the load it offers, and what it must
// show.
type scenario struct {
	name, desc string
	// serve holds the row's frontend extras; runScenario fills in the
	// shared workers, queue depth and 10s query deadline.
	serve serve.Config
	// mutate arms the backend (fault profile, hedging); nil for none.
	mutate func(*multistore.Config)
	phases []phaseSpec
	// verdict judges the finished result: pass and the note explaining it.
	verdict func(r *ScenarioResult) (bool, string)
}

// scenarioMatrix builds the six rows; offered rates are multiples of the
// backend's calibrated serial capacity.
func (cfg ScenarioConfig) scenarioMatrix(capQPS float64) []scenario {
	one := func(tenant string, rate float64) map[string]float64 { return map[string]float64{tenant: rate} }

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
	coldServed := func(p PhaseResult) (n int) {
		for t, served := range p.TenantServed {
			if t != "t0" {
				n += served
			}
		}
		return n
	}

	var diurnal []phaseSpec
	for i, frac := range []float64{0.3, 0.9, 1.4, 0.9, 0.3} {
		diurnal = append(diurnal, phaseSpec{
			name: fmt.Sprintf("hour-%d", i), rates: one("diurnal", frac*capQPS), sqlOffset: 4 * i,
		})
	}

	return []scenario{{
		name: "flash-crowd", desc: "4x offered overload absorbed as sheds, goodput holds",
		phases: []phaseSpec{
			{name: "warm", rates: one("crowd", 0.5*capQPS)},
			{name: "crowd-4x", rates: one("crowd", 4*capQPS)},
			{name: "recover", rates: one("crowd", 0.5*capQPS), sqlOffset: 8},
		},
		// No congestion collapse: overload goodput holds at >= 80% of warm
		// goodput, overload is absorbed as explicit sheds, and the p99 of
		// served queries stays under the deadline (timeouts count as
		// Failed, not Served).
		verdict: func(r *ScenarioResult) (bool, string) {
			warmG, crowdG, sheds := r.Phases[0].GoodputQPS, r.Phases[1].GoodputQPS, r.Phases[1].Shed
			return crowdG >= 0.8*warmG && sheds > 0,
				fmt.Sprintf("crowd goodput %.1f/s vs warm %.1f/s (need >= 80%%), %d sheds during crowd", crowdG, warmG, sheds)
		},
	}, {
		name: "zipf-skew", desc: "hot tenant sheds against its own quota, cold tenants unharmed",
		serve: serve.Config{Quota: serve.QuotaConfig{RatePerSec: 0.8 * capQPS, Burst: 4}},
		phases: []phaseSpec{
			{name: "baseline", rates: base},
			{name: "skew", rates: skewed},
		},
		// Cold tenants' served counts may drop at most 10% from baseline to
		// skew, while the hot tenant sheds against its own bucket.
		verdict: func(r *ScenarioResult) (bool, string) {
			coldBase, coldSkew := coldServed(r.Phases[0]), coldServed(r.Phases[1])
			hotShed := r.Phases[1].TenantShed["t0"]
			return hotShed > 0 && float64(coldSkew) >= 0.9*float64(coldBase),
				fmt.Sprintf("cold served %d baseline -> %d under skew (need >= 90%%), hot shed %d", coldBase, coldSkew, hotShed)
		},
	}, {
		name: "diurnal", desc: "sinusoidal offered load under the adaptive limit",
		serve:  serve.Config{Adaptive: serve.AdaptiveConfig{TargetP99: 5 * time.Second, Window: 16}},
		phases: diurnal,
		// The trough after the peak recovers: final-phase goodput within
		// 50% of the first trough's, and nothing hard-failed along the
		// curve.
		verdict: func(r *ScenarioResult) (bool, string) {
			first, last := r.Phases[0].GoodputQPS, r.Phases[len(r.Phases)-1].GoodputQPS
			return first > 0 && last >= 0.5*first,
				fmt.Sprintf("trough goodput %.1f/s -> %.1f/s through the peak", first, last)
		},
	}, {
		name: "drift-burst", desc: "query-mix drift with reorganization churn between phases",
		serve: serve.Config{DrainTimeout: 2 * time.Second},
		phases: []phaseSpec{
			{name: "mix-a", rates: one("drift", 0.5*capQPS)},
			{name: "drift-1", rates: one("drift", 0.5*capQPS), sqlOffset: 11, reorg: true},
			{name: "drift-2", rates: one("drift", 0.5*capQPS), sqlOffset: 22, reorg: true},
		},
		// Reorg churn between drifted mixes must not wedge the plane: both
		// reorgs complete and the drifted phases keep serving.
		verdict: func(r *ScenarioResult) (bool, string) {
			p := r.Phases
			return r.Reorgs >= 2 && p[1].Served > 0 && p[2].Served > 0,
				fmt.Sprintf("%d reorgs; served %d/%d/%d across drift phases", r.Reorgs, p[0].Served, p[1].Served, p[2].Served)
		},
	}, {
		name: "etl-storm", desc: "append storm racing live queries",
		phases: []phaseSpec{
			{name: "calm", rates: one("etl", 0.5*capQPS)},
			{name: "storm", rates: one("etl", 0.5*capQPS), etlStorm: true},
		},
		// Appends invalidate views and race queries through the backend's
		// serialization; the plane must keep serving with invariants
		// intact.
		verdict: func(r *ScenarioResult) (bool, string) {
			storm := r.Phases[1]
			return storm.Served > 0, fmt.Sprintf("storm-phase served %d of %d offered", storm.Served, storm.Submitted)
		},
	}, {
		name: "dw-brownout", desc: "DW fault storm with hedged HV execution",
		// DW-side faults force retry exhaustion on a fraction of split
		// plans; hedging (aggressive threshold so every DW phase races a
		// shadow) converts those fallbacks into committed shadows.
		mutate: func(mc *multistore.Config) {
			mc.Faults = faults.Profile{}.With(faults.SiteDWQuery, 0.45)
			mc.FaultSeed = cfg.Seed
			mc.Retry = faults.RetryPolicy{MaxAttempts: 2, BaseBackoff: 1, BackoffFactor: 2, MaxBackoff: 4}
			mc.Hedge = multistore.HedgeConfig{Enabled: true, Multiplier: 0.001, MinDelay: time.Nanosecond}
		},
		phases: []phaseSpec{
			{name: "brownout", rates: one("brown", 0.5*capQPS)},
			{name: "brownout-2", rates: one("brown", 0.5*capQPS), sqlOffset: 16},
		},
		// The brownout keeps serving, and at least one exhausted DW query
		// completed from its hedge shadow instead of a serial re-execution.
		verdict: func(r *ScenarioResult) (bool, string) {
			return r.Phases[0].Served+r.Phases[1].Served > 0 && r.HedgeWins >= 1,
				fmt.Sprintf("hedges %d, wins %d under DW fault storm", r.Hedges, r.HedgeWins)
		},
	}}
}

// runScenario runs one row on a fresh backend and server: its phases in
// order, then the exit checks (serve accounting, catalog invariants), the
// shared counters, and the row's verdict.
func (cfg ScenarioConfig) runScenario(sc scenario) (*ScenarioResult, error) {
	sys, err := cfg.newSystem(multistore.VariantMSMiso, sc.mutate)
	if err != nil {
		return nil, err
	}
	scfg := sc.serve
	scfg.Workers, scfg.QueueDepth, scfg.QueryTimeout = cfg.Workers, cfg.Queue, 10*time.Second
	d := newDriver(serve.NewServer(scfg, sys))
	defer d.srv.Close() // idempotent: covers the error returns below

	res := &ScenarioResult{Name: sc.name, Description: sc.desc}
	for _, ph := range sc.phases {
		pr, err := runPhase(d, sys, ph, cfg.PhaseDur)
		if err != nil {
			return nil, err
		}
		res.Phases = append(res.Phases, pr)
	}
	m, err := d.finish(sys)
	if err != nil {
		return nil, err
	}
	res.Tenants, res.FairnessRatio = tenantOutcomes(d.srv, time.Duration(len(sc.phases))*cfg.PhaseDur)
	sm := sys.Metrics()
	res.Hedges, res.HedgeWins = sm.Hedges, sm.HedgeWins
	res.Sheds, res.QuotaSheds, res.Degraded = m.Sheds, m.QuotaSheds, m.Degraded
	res.Reorgs, res.LimitDecs = m.Reorgs, m.LimitDecreases
	res.Pass, res.Notes = sc.verdict(res)
	return res, nil
}

// RunScenarios executes the full matrix and assembles the report.
func RunScenarios(cfg ScenarioConfig) (*ScenarioReport, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 8
	}
	if cfg.PhaseDur <= 0 {
		cfg.PhaseDur = 2 * time.Second
	}

	// Calibrate once on a throwaway system: offered rates for every
	// scenario are multiples of the backend's serial capacity.
	calSys, err := cfg.newSystem(multistore.VariantMSMiso, nil)
	if err != nil {
		return nil, err
	}
	capQPS, err := calibrate(calSys)
	if err != nil {
		return nil, err
	}

	report := &ScenarioReport{Host: cfg.host(), CalibratedQPS: capQPS}
	for _, sc := range cfg.scenarioMatrix(capQPS) {
		res, err := cfg.runScenario(sc)
		if err != nil {
			return nil, fmt.Errorf("experiments: scenario %s: %w", sc.name, err)
		}
		report.Scenarios = append(report.Scenarios, *res)
	}
	return report, nil
}
