// The scenario table: every plane harness — the serving soak, the chaos and
// crash sweeps, the governance pipeline, the overload scenarios, the cache
// soak and the endurance run — is a list of rows, and one runner executes
// any row into one outcome record. A row is data: the system it builds,
// how it serves it, the load it offers, the side traffic beside that load,
// the row it is compared with, and the checks its outcome must pass. Every
// row exits through the driver's finish (tally, serve accounting, catalog
// invariants), and a mode's report is passed exactly when every check in
// it is.
package experiments

import (
	"cmp"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"time"

	"miso/internal/audit"
	"miso/internal/govern"
	"miso/internal/multistore"
	"miso/internal/serve"
	"miso/internal/storage"
	"miso/internal/workload"
)

// row is one configured run.
type row struct {
	// name identifies the row in its mode's report; unique within a mode.
	name, desc string
	variant    multistore.Variant // "" is MS-MISO
	// rate is the fault rate a sweep row reports in its rate column.
	rate float64
	// mutate arms the system over the shared builder's configuration:
	// fault profile, durability, hedging, reuse, memory limit. nil for none.
	mutate func(*multistore.Config)
	// serve is the serving frontend; Workers 0 runs the row sequentially,
	// its queries straight on the system one at a time.
	serve  serve.Config
	phases []phase
	// Side traffic: forced reorganizations every reorgEvery completions, a
	// repairing background scrubber ticking every scrub (4 views a chunk),
	// and the endurance horizon that ends a closed loop.
	reorgEvery int
	scrub      time.Duration
	horizon    *horizon
	// pin folds every answer the row serves into the mode's digest check,
	// which the first answer seen for a SQL text pins.
	pin bool
	// twin names an earlier row of the mode this one is compared with.
	twin   string
	checks []check
}

// phase is one stretch of load: an open loop when open.rates is set, else
// a closed loop, optionally preceded by a reorganization through the drain
// barrier and accompanied by an ETL storm.
type phase struct {
	name   string
	closed closedLoop
	open   openLoop
	reorg  bool
	storm  bool
}

// sequential is the phase of a row that runs sqls in order on one client.
func sequential(sqls []string) phase {
	return phase{name: "workload", closed: closedLoop{clients: 1, count: len(sqls),
		next: func(_, i int, _ *rand.Rand) request { return request{sql: sqls[i]} }}}
}

// horizon ends an endurance loop: reorgs reorganizations and queries
// completions, or max wall clock, whichever is first.
type horizon struct {
	reorgs, queries int
	max             time.Duration
}

// check is one named predicate over a finished row's outcome: whether it
// passed, and the detail the report prints beside the verdict.
type check struct {
	name string
	eval func(o *Outcome) (bool, string)
}

// Check is one evaluated check.
type Check struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}

// RecoveryStats is what a sequential row's crash recoveries came to:
// process deaths, successful Recover calls (equal when the run completes),
// WAL records replayed and torn bytes discarded across them, views
// quarantined, in-flight reorgs and transfers rolled back, and the
// simulated recovery seconds charged.
type RecoveryStats struct {
	Crashes     int     `json:"crashes"`
	Recoveries  int     `json:"recoveries"`
	Replayed    int     `json:"replayed"`
	TornBytes   int     `json:"torn_bytes"`
	Quarantined int     `json:"quarantined"`
	RolledBack  int     `json:"rolled_back"`
	Seconds     float64 `json:"seconds"`
}

// Outcome is the record one row's run produces; every check reads it.
type Outcome struct {
	Row      string             `json:"row"`
	Desc     string             `json:"description,omitempty"`
	Variant  multistore.Variant `json:"variant"`
	Rate     float64            `json:"rate,omitempty"`
	Sessions int                `json:"sessions,omitempty"`
	Phases   []*tally           `json:"phases"`
	TimedOut bool               `json:"timed_out,omitempty"`
	// System and Serve are the backend's and the frontend's counters at
	// exit (Serve is zero for a sequential row).
	System      multistore.Metrics `json:"system"`
	Serve       serve.Metrics      `json:"serve"`
	CancelP50Ms float64            `json:"cancel_p50_ms,omitempty"`
	CancelP99Ms float64            `json:"cancel_p99_ms,omitempty"`
	CancelMaxMs float64            `json:"cancel_max_ms,omitempty"`
	Recovery    RecoveryStats      `json:"recovery"`
	// Clean is the clean-shutdown byte-identity check of a durable
	// sequential row: checkpoint, recover a twin, equal state digests.
	Clean bool `json:"clean,omitempty"`
	// Digest folds a sequential row's result tables, in order, and its
	// final state digest.
	Digest string `json:"digest,omitempty"`
	// AnswersMatch is the mode's digest check when the row finished.
	AnswersMatch bool      `json:"answers_match"`
	Rot          *RotStats `json:"rot,omitempty"`
	Checks       []Check   `json:"checks"`
	// twin is the outcome of the row this one is compared with.
	twin *Outcome
}

// Shape is what misobench's -sessions, -dur and -endurancequeries set; a
// field that is not positive keeps the mode's default.
type Shape struct {
	Sessions int
	Dur      time.Duration
	Queries  int
}

// orDefault is v when it is positive, else the mode's default def.
func orDefault[T int | time.Duration](v, def T) T {
	if v > 0 {
		return v
	}
	return def
}

// layout is how a mode's report renders: its title, a column header, the
// line (or lines) of each row, and a footer.
type layout struct {
	title, header, footer string
	line                  func(o *Outcome) string
}

// Mode is one misobench mode of the table: the rows it selects and how its
// report renders.
type Mode struct {
	Name, Desc, Artifact string
	build                func(c Config, sh Shape) (layout, []row, error)
}

// Modes lists the table's modes in misobench's order.
var Modes = []Mode{
	{"chaos", "fault-injection sweep (robustness extension)", "", chaosRows},
	{"crash", "crash-recovery sweep (durability extension)", "", crashRows},
	{"benchgov", "governance pipeline: cancellation storm, panic containment, memory budgets", "BENCH_governance.json", governRows},
	{"serve", "concurrent-serving soak (robustness extension)", "", soakRows},
	{"scenarios", "overload scenario matrix: flash crowd, tenant skew, diurnal, drift churn, ETL storm, DW brownout", "BENCH_scenarios.json", scenarioRows},
	{"cache", "cross-query reuse soak: result views, concurrent repeats included, vs cold execution", "BENCH_cache.json", cacheRows},
	{"endurance", "long-horizon adversarial endurance harness: closed-loop tenants, bit-rot injection, self-healing audit", "BENCH_endurance.json", enduranceRows},
}

// Run executes the mode's rows into its report.
func (m Mode) Run(c Config, sh Shape) (*Report, error) {
	lay, rows, err := m.build(c, sh)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", m.Name, err)
	}
	rep, err := c.runRows(lay, rows)
	if err != nil {
		return nil, fmt.Errorf("experiments: %s %w", m.Name, err)
	}
	return rep, nil
}

// runRows runs rows in order into one report; a row's twin must precede it.
func (c Config) runRows(lay layout, rows []row) (*Report, error) {
	rep := &Report{Host: c.host(), Title: lay.title, layout: lay}
	answers := &digestCheck{}
	done := map[string]*Outcome{}
	for _, r := range rows {
		o, err := c.runRow(r, done[r.twin], answers)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", r.name, err)
		}
		done[r.name] = o
		rep.Rows = append(rep.Rows, o)
	}
	return rep, nil
}

// runRow is the one runner: build the row's system and frontend, start its
// scrubber, run its phases with their side traffic, finish, audit what the
// scrubber left, and evaluate the checks.
func (c Config) runRow(r row, twin *Outcome, answers *digestCheck) (*Outcome, error) {
	v := cmp.Or(r.variant, multistore.VariantMSMiso)
	mcfg, cat, err := c.multistoreConfig(v, r.mutate)
	if err != nil {
		return nil, err
	}
	sys := multistore.New(mcfg, cat)
	if err := sys.ProvideFutureWorkload(workload.SQLs()); err != nil {
		return nil, err
	}
	d := newDriver(nil, sys)
	d.mcfg, d.reorgEvery = mcfg, r.reorgEvery
	o := &Outcome{Row: r.name, Desc: r.desc, Variant: v, Rate: r.rate, twin: twin}
	if r.serve.Workers > 0 {
		d.srv = serve.NewServer(r.serve, sys)
		defer d.srv.Close() // idempotent: covers the error returns below
		o.Sessions = r.phases[0].closed.clients
	}
	fold := storage.HashSeed
	d.onResult = func(_ int, q request, rep *multistore.QueryReport, err error) error {
		if err != nil {
			return nil
		}
		if r.pin {
			answers.observe(q.sql, storage.ChecksumData(rep.Result))
		}
		if d.srv == nil {
			fold = fold*1099511628211 ^ storage.ChecksumTable(rep.Result)
		}
		return nil
	}
	var scrub *audit.Scrubber
	if r.scrub > 0 {
		ac := audit.Config{Interval: r.scrub, ChunkViews: 4, Repair: true}
		if d.srv != nil {
			ac.Quiesce = d.srv.Quiesce
		}
		scrub = audit.New(sys, ac)
		scrub.Start()
		defer scrub.Stop() // idempotent, like Close above
	}
	var sides []side
	if r.horizon != nil {
		sides = append(sides, d.horizon(*r.horizon, &o.TimedOut))
	}

	for _, ph := range r.phases {
		if ph.reorg {
			if err := d.srv.Reorganize(); err != nil {
				return nil, fmt.Errorf("reorg before %s: %w", ph.name, err)
			}
		}
		d.tally = newTally(ph.name)
		phSides := sides
		if ph.storm {
			phSides = append(sides[:len(sides):len(sides)], d.storm)
		}
		start := time.Now()
		d.load(ph, phSides)
		if err := d.tally.check(); err != nil {
			return nil, err
		}
		d.tally.summarize(ph, time.Since(start), sys)
		o.Phases = append(o.Phases, d.tally)
	}
	if scrub != nil {
		scrub.Stop()
	}
	if o.Serve, err = d.finish(); err != nil {
		return nil, err
	}
	if scrub != nil {
		if err := o.exitAudit(d.sys, scrub); err != nil {
			return nil, err
		}
	}
	o.System, o.Recovery, o.AnswersMatch = d.sys.Metrics(), d.rec, !answers.diverged.Load()
	if d.srv != nil {
		lat := d.srv.CancelLatencies()
		o.CancelP50Ms, o.CancelP99Ms, o.CancelMaxMs = ms(govern.Percentile(lat, 50)), ms(govern.Percentile(lat, 99)), ms(govern.Percentile(lat, 100))
	} else {
		o.Digest = fmt.Sprintf("%016x", fold*1099511628211^d.sys.StateDigest())
		if mcfg.CheckpointEvery > 0 {
			if o.Clean, err = cleanShutdownMatches(mcfg, d.sys); err != nil {
				return nil, fmt.Errorf("clean shutdown: %w", err)
			}
		}
	}
	for _, ck := range r.checks {
		pass, detail := ck.eval(o)
		o.Checks = append(o.Checks, Check{Name: ck.name, Pass: pass, Detail: detail})
	}
	return o, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// summarize fills a finished phase's summary: its wall clock (an open
// loop's offered duration), offered rate, goodput, latency percentiles,
// and how many result views the system held when it ended.
func (t *tally) summarize(ph phase, wall time.Duration, sys *multistore.System) {
	if ph.open.rates != nil {
		wall = ph.open.dur
	}
	for _, r := range ph.open.rates {
		t.OfferedQPS += r
	}
	t.Seconds = wall.Seconds()
	t.GoodputQPS = float64(t.Served) / t.Seconds
	t.P50Ms, t.P99Ms = ms(t.percentile(50)), ms(t.percentile(99))
	t.CacheEntries = sys.ReuseStats().Cache.Entries
}

// Report is the one report every mode of the table produces; misobench
// writes it as the mode's JSON artifact.
type Report struct {
	Host
	Title  string     `json:"title"`
	Rows   []*Outcome `json:"rows"`
	layout layout
}

// Passed reports whether every check of every row passed.
func (r *Report) Passed() bool {
	for _, o := range r.Rows {
		for _, c := range o.Checks {
			if !c.Pass {
				return false
			}
		}
	}
	return true
}

// WriteText renders the report: the title, the table (a mode without one
// of its own gets a line per phase of every row), the footer, and every
// check with its verdict and detail.
func (r *Report) WriteText(w io.Writer) {
	lay := r.layout
	if lay.line == nil {
		lay.header = fmt.Sprintf("%-14s %-12s %6s %6s %6s %6s %9s %9s %9s %9s",
			"row", "phase", "sub", "served", "shed", "failed", "wall", "goodput", "p50", "p99")
		lay.line = phaseLines
	}
	fprintf(w, "%s\n%s\n", r.Title, lay.header)
	for _, o := range r.Rows {
		fprintf(w, "%s\n", lay.line(o))
	}
	fprintf(w, "%s", lay.footer)
	for _, o := range r.Rows {
		for _, c := range o.Checks {
			verdict := "PASS"
			if !c.Pass {
				verdict = "FAIL"
			}
			fprintf(w, "%s  %s %s: %s\n", verdict, o.Row, c.Name, c.Detail)
		}
	}
}

// phaseLines renders each phase of a row on a line of its own.
func phaseLines(o *Outcome) string {
	lines := make([]string, len(o.Phases))
	for i, p := range o.Phases {
		lines[i] = fmt.Sprintf("%-14s %-12s %6d %6d %6d %6d %8.2fs %7.1f/s %7.1fms %7.1fms",
			o.Row, p.Name, p.Submitted, p.Served, p.Shed, p.Failed, p.Seconds, p.GoodputQPS, p.P50Ms, p.P99Ms)
	}
	return strings.Join(lines, "\n")
}
