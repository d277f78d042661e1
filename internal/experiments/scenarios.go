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
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"time"

	"miso/internal/data"
	"miso/internal/faults"
	"miso/internal/govern"
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
	GOOS          string           `json:"goos"`
	GOARCH        string           `json:"goarch"`
	NumCPU        int              `json:"num_cpu"`
	Scale         string           `json:"scale"`
	CalibratedQPS float64          `json:"calibrated_qps"`
	Scenarios     []ScenarioResult `json:"scenarios"`
}

// WriteJSON renders the report as indented JSON.
func (r *ScenarioReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
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

// newScenarioSystem builds a fresh backend, letting the scenario mutate
// the multistore config (fault profile, hedging, retry budget) first.
func (c ScenarioConfig) newScenarioSystem(mut func(*multistore.Config)) (*multistore.System, error) {
	cat, err := data.Generate(c.Data)
	if err != nil {
		return nil, err
	}
	cfg := multistore.DefaultConfig(multistore.VariantMSMiso)
	cfg.SetBudgets(cat, c.BudgetMultiple, c.TransferBudget)
	cfg.Faults = faults.Uniform(c.FaultRate)
	cfg.FaultSeed = c.FaultSeed
	cfg.Tuner.TuneWorkers = c.TuneWorkers
	cfg.ExecWorkers = c.ExecWorkers
	if mut != nil {
		mut(&cfg)
	}
	sys := multistore.New(cfg, cat)
	if err := sys.ProvideFutureWorkload(workload.SQLs()); err != nil {
		return nil, err
	}
	return sys, nil
}

// calibrate measures the backend's serial query throughput (the backend
// executes one query at a time, so offered rates are set relative to
// 1/meanLatency regardless of worker count).
func calibrate(sys *multistore.System, n int) (float64, error) {
	sqls := workload.SQLs()
	if n <= 0 || n > len(sqls) {
		n = 8
	}
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

// phaseRunner drives one scenario's phases against a server, open-loop:
// every tenant submits at its phase rate from its own ticker goroutine,
// without waiting for responses (responses resolve in their own
// goroutines, bounded by a semaphore). Outcomes are attributed to the
// submitting phase.
type phaseRunner struct {
	srv  *serve.Server
	sys  *multistore.System
	sqls []string
	dur  time.Duration

	mu      sync.Mutex
	hardErr error
}

func (pr *phaseRunner) fail(err error) {
	pr.mu.Lock()
	if pr.hardErr == nil {
		pr.hardErr = err
	}
	pr.mu.Unlock()
}

// phaseAcc accumulates one phase's outcomes across submitter and
// resolver goroutines.
type phaseAcc struct {
	mu           sync.Mutex
	latencies    []time.Duration
	submitted    int
	served       int
	shed         int
	failed       int
	tenantServed map[string]int
	tenantShed   map[string]int
}

// submit dispatches one query asynchronously, classifying its outcome
// into the accumulator when it resolves.
func (pr *phaseRunner) submit(tenant, sql string, acc *phaseAcc, all *sync.WaitGroup, sem chan struct{}) {
	acc.mu.Lock()
	acc.submitted++
	acc.mu.Unlock()
	all.Add(1)
	sem <- struct{}{}
	go func() {
		defer all.Done()
		defer func() { <-sem }()
		t0 := time.Now()
		_, err := pr.srv.DoAs(context.Background(), tenant, sql)
		lat := time.Since(t0)
		acc.mu.Lock()
		defer acc.mu.Unlock()
		switch {
		case err == nil:
			acc.served++
			acc.tenantServed[tenant]++
			acc.latencies = append(acc.latencies, lat)
		case errors.Is(err, serve.ErrShed):
			acc.shed++
			acc.tenantShed[tenant]++
		case errors.Is(err, context.DeadlineExceeded),
			errors.Is(err, context.Canceled),
			errors.Is(err, govern.ErrMemLimit),
			errors.Is(err, govern.ErrInternal):
			acc.failed++
		default:
			acc.failed++
			pr.fail(fmt.Errorf("experiments: scenario tenant %s: %w", tenant, err))
		}
	}()
}

// run executes the phases sequentially and returns per-phase results.
func (pr *phaseRunner) run(phases []phaseSpec) ([]PhaseResult, error) {
	sem := make(chan struct{}, 512)
	var all sync.WaitGroup
	results := make([]PhaseResult, len(phases))

	for pi, ph := range phases {
		if ph.reorg {
			if err := pr.srv.Reorganize(); err != nil {
				return nil, fmt.Errorf("experiments: scenario reorg before %s: %w", ph.name, err)
			}
		}
		stopStorm := make(chan struct{})
		var stormWG sync.WaitGroup
		if ph.etlStorm {
			stormWG.Add(1)
			go pr.etlStorm(stopStorm, &stormWG)
		}

		acc := &phaseAcc{tenantServed: map[string]int{}, tenantShed: map[string]int{}}
		offered := 0.0
		for _, r := range ph.rates {
			offered += r
		}

		var phaseWG sync.WaitGroup // submitter pacers only
		deadline := time.Now().Add(pr.dur)
		for tenant, rate := range ph.rates {
			if rate <= 0 {
				continue
			}
			phaseWG.Add(1)
			go func(tenant string, rate float64) {
				defer phaseWG.Done()
				// Pace by target count, not per-tick: want = rate×elapsed
				// keeps the offered load honest even when the scheduler
				// starves this goroutine and the ticker coalesces (a
				// saturated 1-CPU box must still see true overload).
				interval := time.Duration(float64(time.Second) / rate)
				if interval > 5*time.Millisecond {
					interval = 5 * time.Millisecond
				}
				tick := time.NewTicker(interval)
				defer tick.Stop()
				phaseStart := time.Now()
				i := 0
				for time.Now().Before(deadline) {
					want := int(rate * time.Since(phaseStart).Seconds())
					for ; i < want; i++ {
						sql := pr.sqls[(ph.sqlOffset+i)%len(pr.sqls)]
						pr.submit(tenant, sql, acc, &all, sem)
					}
					<-tick.C
				}
			}(tenant, rate)
		}
		phaseWG.Wait()
		// The phase's submissions are in; let them resolve before
		// measuring so goodput counts everything the phase offered.
		all.Wait()
		close(stopStorm)
		stormWG.Wait()

		acc.mu.Lock()
		res := PhaseResult{
			Name: ph.name, OfferedQPS: offered,
			Submitted: acc.submitted, Served: acc.served, Shed: acc.shed, Failed: acc.failed,
			TenantServed: acc.tenantServed, TenantShed: acc.tenantShed,
		}
		res.GoodputQPS = float64(acc.served) / pr.dur.Seconds()
		latencies := acc.latencies
		acc.mu.Unlock()
		res.P50Ms = float64(govern.Percentile(latencies, 50)) / float64(time.Millisecond)
		res.P99Ms = float64(govern.Percentile(latencies, 99)) / float64(time.Millisecond)
		results[pi] = res

		pr.mu.Lock()
		err := pr.hardErr
		pr.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}

// etlStorm appends records to the tweets log in a tight loop until
// stopped — the update path racing live queries through the backend's
// serialization.
func (pr *phaseRunner) etlStorm(stop <-chan struct{}, wg *sync.WaitGroup) {
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
		if _, err := pr.sys.AppendToLog(data.TweetsLog, lines); err != nil {
			pr.fail(fmt.Errorf("experiments: etl storm append: %w", err))
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
	calSys, err := cfg.newScenarioSystem(nil)
	if err != nil {
		return nil, err
	}
	capQPS, err := calibrate(calSys, 8)
	if err != nil {
		return nil, err
	}

	report := &ScenarioReport{
		GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU(),
		Scale: fmt.Sprintf("%d tweets", cfg.Data.NumTweets), CalibratedQPS: capQPS,
	}

	type scenario struct {
		name, desc string
		run        func() (*ScenarioResult, error)
	}
	scenarios := []scenario{
		{"flash-crowd", "4x offered overload absorbed as sheds, goodput holds", func() (*ScenarioResult, error) {
			return cfg.runFlashCrowd(capQPS)
		}},
		{"zipf-skew", "hot tenant sheds against its own quota, cold tenants unharmed", func() (*ScenarioResult, error) {
			return cfg.runZipfSkew(capQPS)
		}},
		{"diurnal", "sinusoidal offered load under the adaptive limit", func() (*ScenarioResult, error) {
			return cfg.runDiurnal(capQPS)
		}},
		{"drift-burst", "query-mix drift with reorganization churn between phases", func() (*ScenarioResult, error) {
			return cfg.runDriftBurst(capQPS)
		}},
		{"etl-storm", "append storm racing live queries", func() (*ScenarioResult, error) {
			return cfg.runETLStorm(capQPS)
		}},
		{"dw-brownout", "DW fault storm with hedged HV execution", func() (*ScenarioResult, error) {
			return cfg.runDWBrownout(capQPS)
		}},
	}
	for _, sc := range scenarios {
		res, err := sc.run()
		if err != nil {
			return nil, fmt.Errorf("experiments: scenario %s: %w", sc.name, err)
		}
		res.Name = sc.name
		res.Description = sc.desc
		report.Scenarios = append(report.Scenarios, *res)
	}
	return report, nil
}

// finishScenario closes the server, checks invariants, and fills the
// shared counters into the result.
func finishScenario(srv *serve.Server, sys *multistore.System, phases []PhaseResult, total time.Duration) (*ScenarioResult, error) {
	srv.Close()
	m := srv.Metrics()
	if err := m.Check(); err != nil {
		return nil, err
	}
	if err := sys.CheckInvariants(); err != nil {
		return nil, fmt.Errorf("invariants: %w", err)
	}
	tenants, fairness := tenantOutcomes(srv, total)
	sm := sys.Metrics()
	return &ScenarioResult{
		Phases: phases, Tenants: tenants, FairnessRatio: fairness,
		Hedges: sm.Hedges, HedgeWins: sm.HedgeWins,
		Sheds: m.Sheds, QuotaSheds: m.QuotaSheds, Degraded: m.Degraded,
		Reorgs: m.Reorgs, LimitDecs: m.LimitDecreases,
	}, nil
}

func (cfg ScenarioConfig) runFlashCrowd(capQPS float64) (*ScenarioResult, error) {
	sys, err := cfg.newScenarioSystem(nil)
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(serve.Config{
		Workers: cfg.Workers, QueueDepth: cfg.Queue, QueryTimeout: 10 * time.Second,
	}, sys)
	warm := 0.5 * capQPS
	pr := &phaseRunner{srv: srv, sys: sys, sqls: workload.SQLs(), dur: cfg.PhaseDur}
	phases, err := pr.run([]phaseSpec{
		{name: "warm", rates: map[string]float64{"crowd": warm}},
		{name: "crowd-4x", rates: map[string]float64{"crowd": 4 * capQPS}},
		{name: "recover", rates: map[string]float64{"crowd": warm}, sqlOffset: 8},
	})
	if err != nil {
		srv.Close()
		return nil, err
	}
	res, err := finishScenario(srv, sys, phases, 3*cfg.PhaseDur)
	if err != nil {
		return nil, err
	}
	// No congestion collapse: overload goodput holds at >= 80% of warm
	// goodput, overload is absorbed as explicit sheds, and the p99 of
	// served queries stays under the deadline (timeouts count as Failed,
	// not Served).
	warmG, crowdG := phases[0].GoodputQPS, phases[1].GoodputQPS
	res.Pass = crowdG >= 0.8*warmG && phases[1].Shed > 0
	res.Notes = fmt.Sprintf("crowd goodput %.1f/s vs warm %.1f/s (need >= 80%%), %d sheds during crowd",
		crowdG, warmG, phases[1].Shed)
	return res, nil
}

func (cfg ScenarioConfig) runZipfSkew(capQPS float64) (*ScenarioResult, error) {
	sys, err := cfg.newScenarioSystem(nil)
	if err != nil {
		return nil, err
	}
	const tenants = 4
	// Equal-weight quotas sized so cold tenants never touch their
	// buckets while the hot tenant's surge drains only its own.
	srv := serve.NewServer(serve.Config{
		Workers: cfg.Workers, QueueDepth: cfg.Queue, QueryTimeout: 10 * time.Second,
		Quota: serve.QuotaConfig{RatePerSec: 0.8 * capQPS, Burst: 4},
	}, sys)
	perCold := 0.1 * capQPS
	base := map[string]float64{}
	for i := 0; i < tenants; i++ {
		base[fmt.Sprintf("t%d", i)] = perCold
	}
	skew := zipfRates(tenants, 2.5*capQPS, 1.5)
	// Keep the cold tenants' offered rate identical across phases so
	// their goodput comparison isolates the hot tenant's effect.
	hot := skew["t0"]
	skewed := map[string]float64{"t0": hot}
	for t, r := range base {
		if t != "t0" {
			skewed[t] = r
		}
	}
	pr := &phaseRunner{srv: srv, sys: sys, sqls: workload.SQLs(), dur: cfg.PhaseDur}
	phases, err := pr.run([]phaseSpec{
		{name: "baseline", rates: base},
		{name: "skew", rates: skewed},
	})
	if err != nil {
		srv.Close()
		return nil, err
	}
	res, err := finishScenario(srv, sys, phases, 2*cfg.PhaseDur)
	if err != nil {
		return nil, err
	}
	// Cold tenants' served counts may drop at most 10% from baseline to
	// skew, while the hot tenant sheds against its own bucket.
	coldBase, coldSkew := 0, 0
	for t, n := range phases[0].TenantServed {
		if t != "t0" {
			coldBase += n
		}
	}
	for t, n := range phases[1].TenantServed {
		if t != "t0" {
			coldSkew += n
		}
	}
	hotShed := phases[1].TenantShed["t0"]
	res.Pass = hotShed > 0 && float64(coldSkew) >= 0.9*float64(coldBase)
	res.Notes = fmt.Sprintf("cold served %d baseline -> %d under skew (need >= 90%%), hot shed %d",
		coldBase, coldSkew, hotShed)
	return res, nil
}

func (cfg ScenarioConfig) runDiurnal(capQPS float64) (*ScenarioResult, error) {
	sys, err := cfg.newScenarioSystem(nil)
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(serve.Config{
		Workers: cfg.Workers, QueueDepth: cfg.Queue, QueryTimeout: 10 * time.Second,
		Adaptive: serve.AdaptiveConfig{TargetP99: 5 * time.Second, Window: 16},
	}, sys)
	pr := &phaseRunner{srv: srv, sys: sys, sqls: workload.SQLs(), dur: cfg.PhaseDur}
	var specs []phaseSpec
	for i, frac := range []float64{0.3, 0.9, 1.4, 0.9, 0.3} {
		specs = append(specs, phaseSpec{
			name:      fmt.Sprintf("hour-%d", i),
			rates:     map[string]float64{"diurnal": frac * capQPS},
			sqlOffset: 4 * i,
		})
	}
	phases, err := pr.run(specs)
	if err != nil {
		srv.Close()
		return nil, err
	}
	res, err := finishScenario(srv, sys, phases, time.Duration(len(phases))*cfg.PhaseDur)
	if err != nil {
		return nil, err
	}
	// The trough after the peak recovers: final-phase goodput within 50%
	// of the first trough's, and nothing hard-failed along the curve.
	first, last := phases[0].GoodputQPS, phases[len(phases)-1].GoodputQPS
	res.Pass = first > 0 && last >= 0.5*first
	res.Notes = fmt.Sprintf("trough goodput %.1f/s -> %.1f/s through the peak", first, last)
	return res, nil
}

func (cfg ScenarioConfig) runDriftBurst(capQPS float64) (*ScenarioResult, error) {
	sys, err := cfg.newScenarioSystem(nil)
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(serve.Config{
		Workers: cfg.Workers, QueueDepth: cfg.Queue, QueryTimeout: 10 * time.Second,
		DrainTimeout: 2 * time.Second,
	}, sys)
	rate := 0.5 * capQPS
	pr := &phaseRunner{srv: srv, sys: sys, sqls: workload.SQLs(), dur: cfg.PhaseDur}
	phases, err := pr.run([]phaseSpec{
		{name: "mix-a", rates: map[string]float64{"drift": rate}},
		{name: "drift-1", rates: map[string]float64{"drift": rate}, sqlOffset: 11, reorg: true},
		{name: "drift-2", rates: map[string]float64{"drift": rate}, sqlOffset: 22, reorg: true},
	})
	if err != nil {
		srv.Close()
		return nil, err
	}
	res, err := finishScenario(srv, sys, phases, 3*cfg.PhaseDur)
	if err != nil {
		return nil, err
	}
	// Reorg churn between drifted mixes must not wedge the plane:
	// both reorgs complete and the drifted phases keep serving.
	res.Pass = res.Reorgs >= 2 && phases[1].Served > 0 && phases[2].Served > 0
	res.Notes = fmt.Sprintf("%d reorgs; served %d/%d/%d across drift phases",
		res.Reorgs, phases[0].Served, phases[1].Served, phases[2].Served)
	return res, nil
}

func (cfg ScenarioConfig) runETLStorm(capQPS float64) (*ScenarioResult, error) {
	sys, err := cfg.newScenarioSystem(nil)
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(serve.Config{
		Workers: cfg.Workers, QueueDepth: cfg.Queue, QueryTimeout: 10 * time.Second,
	}, sys)
	rate := 0.5 * capQPS
	pr := &phaseRunner{srv: srv, sys: sys, sqls: workload.SQLs(), dur: cfg.PhaseDur}
	phases, err := pr.run([]phaseSpec{
		{name: "calm", rates: map[string]float64{"etl": rate}},
		{name: "storm", rates: map[string]float64{"etl": rate}, etlStorm: true},
	})
	if err != nil {
		srv.Close()
		return nil, err
	}
	res, err := finishScenario(srv, sys, phases, 2*cfg.PhaseDur)
	if err != nil {
		return nil, err
	}
	// Appends invalidate views and race queries through the backend's
	// serialization; the plane must keep serving with invariants intact.
	res.Pass = phases[1].Served > 0
	res.Notes = fmt.Sprintf("storm-phase served %d of %d offered", phases[1].Served, phases[1].Submitted)
	return res, nil
}

func (cfg ScenarioConfig) runDWBrownout(capQPS float64) (*ScenarioResult, error) {
	sys, err := cfg.newScenarioSystem(func(mc *multistore.Config) {
		// DW-side faults force retry exhaustion on a fraction of split
		// plans; hedging (aggressive threshold so every DW phase races a
		// shadow) converts those fallbacks into committed shadows.
		mc.Faults = faults.Profile{}.With(faults.SiteDWQuery, 0.45)
		mc.FaultSeed = cfg.Seed
		mc.Retry = faults.RetryPolicy{MaxAttempts: 2, BaseBackoff: 1, BackoffFactor: 2, MaxBackoff: 4}
		mc.Hedge = multistore.HedgeConfig{Enabled: true, Multiplier: 0.001, MinDelay: time.Nanosecond}
	})
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(serve.Config{
		Workers: cfg.Workers, QueueDepth: cfg.Queue, QueryTimeout: 10 * time.Second,
	}, sys)
	rate := 0.5 * capQPS
	pr := &phaseRunner{srv: srv, sys: sys, sqls: workload.SQLs(), dur: cfg.PhaseDur}
	phases, err := pr.run([]phaseSpec{
		{name: "brownout", rates: map[string]float64{"brown": rate}},
		{name: "brownout-2", rates: map[string]float64{"brown": rate}, sqlOffset: 16},
	})
	if err != nil {
		srv.Close()
		return nil, err
	}
	res, err := finishScenario(srv, sys, phases, 2*cfg.PhaseDur)
	if err != nil {
		return nil, err
	}
	// The brownout keeps serving, and at least one exhausted DW query
	// completed from its hedge shadow instead of a serial re-execution.
	res.Pass = phases[0].Served+phases[1].Served > 0 && res.HedgeWins >= 1
	res.Notes = fmt.Sprintf("hedges %d, wins %d under DW fault storm", res.Hedges, res.HedgeWins)
	return res, nil
}
