package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"miso/internal/multistore"
	"miso/internal/serve"
	"miso/internal/workload"
)

// SoakConfig parameterizes the concurrent-serving soak: Sessions client
// goroutines each submit Queries queries (cycling through the 32-query
// workload) against one serve.Server over a single system.
type SoakConfig struct {
	Config
	// Variant is the system under soak (MS-MISO by default).
	Variant multistore.Variant
	// Sessions is the number of concurrent client sessions.
	Sessions int
	// Queries is the number of queries each session submits.
	Queries int
	// Workers / Queue / Timeout configure the serving frontend; zero
	// values take the serve package defaults (Timeout zero disables the
	// per-query deadline).
	Workers int
	Queue   int
	Timeout time.Duration
	// ReorgEvery forces an online reorganization (through the drain
	// barrier) after every n completed submissions across all sessions;
	// zero disables forced reorgs.
	ReorgEvery int
}

// DefaultSoak returns the acceptance-soak shape: 8 sessions replaying
// the full workload once each.
func DefaultSoak(base Config) SoakConfig {
	return SoakConfig{
		Config:   base,
		Variant:  multistore.VariantMSMiso,
		Sessions: 8,
		Queries:  len(workload.SQLs()),
		Workers:  4,
		Queue:    8,
		Timeout:  30 * time.Second,
	}
}

// SoakResult reports one soak run: wall-clock throughput and latency of
// the serving plane plus the backend's simulated TTI accounting.
type SoakResult struct {
	Cfg      SoakConfig
	Wall     time.Duration
	QPS      float64
	P50, P99 time.Duration
	Serve    serve.Metrics
	System   multistore.Metrics
}

// Soak runs the concurrent-serving soak. Errors other than sheds and
// governed abandons fail the run, as does a breach of the serving
// metrics' accounting or of the backend's catalog invariants at exit.
func Soak(cfg SoakConfig) (*SoakResult, error) {
	if cfg.Variant == "" {
		cfg.Variant = multistore.VariantMSMiso
	}
	if cfg.Sessions <= 0 {
		cfg.Sessions = 8
	}
	if cfg.Queries <= 0 {
		cfg.Queries = len(workload.SQLs())
	}
	// Spell out serve's own defaults so the report prints the effective
	// pool and queue sizes.
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.Queue <= 0 {
		cfg.Queue = 2 * cfg.Workers
	}
	sys, err := cfg.Config.newSystem(cfg.Variant, nil)
	if err != nil {
		return nil, err
	}
	srv := serve.NewServer(serve.Config{
		Workers:      cfg.Workers,
		QueueDepth:   cfg.Queue,
		QueryTimeout: cfg.Timeout,
	}, sys)

	sqls := workload.SQLs()
	d := newDriver(srv)
	if cfg.ReorgEvery > 0 {
		d.onResult = func(n int, _ request, _ *multistore.QueryReport, _ error) error {
			if n%cfg.ReorgEvery != 0 {
				return nil
			}
			if err := srv.Reorganize(); err != nil {
				return fmt.Errorf("online reorg: %w", err)
			}
			return nil
		}
	}
	start := time.Now()
	d.closed(closedLoop{
		clients: cfg.Sessions,
		count:   cfg.Queries,
		next: func(session, i int, _ *rand.Rand) request {
			return request{sql: sqls[(session+i)%len(sqls)]}
		},
	})
	wall := time.Since(start)
	m, err := d.finish(sys)
	if err != nil {
		return nil, fmt.Errorf("experiments: soak: %w", err)
	}
	res := &SoakResult{
		Cfg: cfg, Wall: wall, Serve: m, System: sys.Metrics(),
		P50: d.tally.percentile(50), P99: d.tally.percentile(99),
	}
	if wall > 0 {
		res.QPS = float64(m.Completed) / wall.Seconds()
	}
	return res, nil
}

// WriteText renders the soak report.
func (r *SoakResult) WriteText(w io.Writer) {
	m := r.Serve
	fprintf(w, "Serving soak: %d sessions x %d queries, %d workers, queue %d, %s (%s)\n",
		r.Cfg.Sessions, r.Cfg.Queries, r.Cfg.Workers, r.Cfg.Queue, r.Cfg.Variant, rateLabel(r.Cfg.FaultRate))
	fprintf(w, "wall %-10s throughput %.1f q/s   latency p50 %s  p99 %s\n",
		r.Wall.Round(time.Millisecond), r.QPS,
		r.P50.Round(time.Microsecond), r.P99.Round(time.Microsecond))
	fprintf(w, "submitted %d: completed %d, shed %d, timed out %d, canceled %d, mem-aborted %d, panics contained %d, failed %d\n",
		m.Submitted, m.Completed, m.Sheds, m.Timeouts, m.Canceled, m.Aborted, m.PanicsContained, m.Failed)
	fprintf(w, "breaker: %d trips, %d probes; degraded %d; reorgs %d (%d drain cancels)\n",
		m.BreakerTrips, m.BreakerProbes, m.Degraded, m.Reorgs, m.ReorgCancels)
	sm := r.System
	fprintf(w, "backend TTI %.1fs (hv %.1f, dw %.1f, xfer %.1f, tune %.1f, etl %.1f, recovery %.1f)\n",
		sm.TTI(), sm.HVExe, sm.DWExe, sm.Transfer, sm.Tune, sm.ETL, sm.Recovery)
	fprintf(w, "catalog invariants held at exit\n")
}

func rateLabel(rate float64) string {
	if rate <= 0 {
		return "no faults"
	}
	return fmt.Sprintf("%.0f%% faults", 100*rate)
}
