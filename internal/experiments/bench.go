// Benchmark pipeline: reproducible measurements of the tuner's what-if
// costing, the knapsack DP, and the serving plane, written as a
// machine-readable JSON report (BENCH_tuner.json in CI). Rows are
// absolute numbers: a change is judged by the end-to-end benchmark's
// trajectory (bench/, -compare), not against a baseline path kept in the
// tree to be slower.
package experiments

import (
	"fmt"
	"io"
	"testing"
	"time"

	"miso/internal/core"
	"miso/internal/data"
	"miso/internal/dw"
	"miso/internal/history"
	"miso/internal/hv"
	"miso/internal/logical"
	"miso/internal/multistore"
	"miso/internal/optimizer"
	"miso/internal/stats"
	"miso/internal/transfer"
	"miso/internal/workload"
)

// BenchRow is one benchmark measurement.
type BenchRow struct {
	// Name identifies the benchmark (e.g. "tuner/workers=4").
	Name string `json:"name"`
	// Workers is the row's worker-pool size (tuner what-if pool for tuner
	// rows, serving pool for the soak row); 0 for rows without one.
	Workers int `json:"workers,omitempty"`
	// Iterations is how many times the measured op ran.
	Iterations int `json:"iterations"`
	// NsPerOp / AllocsPerOp / BytesPerOp are the standard Go benchmark
	// metrics.
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// CacheHitRate is the what-if cost cache's hit fraction over one
	// Tune call (tuner rows only).
	CacheHitRate float64 `json:"cache_hit_rate,omitempty"`
}

// BenchReport is the machine-readable benchmark report.
type BenchReport struct {
	Host
	// CandidateViews is the size of the tuner rows' view universe.
	CandidateViews int        `json:"candidate_views"`
	Rows           []BenchRow `json:"rows"`
}

// WriteText renders the report as a plain-text table.
func (r *BenchReport) WriteText(w io.Writer) {
	fprintf(w, "benchmark pipeline (%s/%s, %d CPU, scale=%s, %d candidate views)\n",
		r.GOOS, r.GOARCH, r.NumCPU, r.Scale, r.CandidateViews)
	fprintf(w, "%-24s %6s %12s %12s %12s %9s\n",
		"name", "iters", "ns/op", "B/op", "allocs/op", "hit-rate")
	for _, row := range r.Rows {
		hit := "-"
		if row.CacheHitRate > 0 {
			hit = fmt.Sprintf("%.3f", row.CacheHitRate)
		}
		fprintf(w, "%-24s %6d %12d %12d %12d %9s\n",
			row.Name, row.Iterations, row.NsPerOp, row.BytesPerOp,
			row.AllocsPerOp, hit)
	}
}

// tunerFixture is everything one Tune call needs, built once per report.
type tunerFixture struct {
	cfg core.Config
	opt *optimizer.Optimizer
	win *history.Window
	cur optimizer.Design
}

// newTunerFixture executes a 6-query evolving window in HV so its
// opportunistic views form a realistic candidate universe (33 views at
// small scale — comfortably past the 12-view floor the acceptance bench
// requires), mirroring core's BenchmarkTunerReorganization setup.
func newTunerFixture(dcfg data.Config) (*tunerFixture, error) {
	cat, err := data.Generate(dcfg)
	if err != nil {
		return nil, err
	}
	est := stats.NewEstimator(cat)
	h := hv.NewStore(hv.DefaultConfig(), cat, est)
	d := dw.NewStore(dw.DefaultConfig(), est)
	opt := optimizer.New(h, d, est, transfer.DefaultConfig())
	builder := logical.NewBuilder(cat)
	win := history.NewWindow(6, 3, 0.5)
	for i, q := range workload.Evolving()[:6] {
		plan, err := builder.BuildSQL(q.SQL)
		if err != nil {
			return nil, err
		}
		if _, err := h.Execute(plan, i); err != nil {
			return nil, err
		}
		win.Add(history.Entry{Seq: i, SQL: q.SQL, Plan: plan})
	}
	cfg := core.DefaultConfig()
	base := cat.TotalLogicalBytes()
	cfg.Bh, cfg.Bd, cfg.Bt = 2*base, 2*base/10, 10<<30
	return &tunerFixture{
		cfg: cfg, opt: opt, win: win,
		cur: optimizer.Design{HV: h.Views, DW: d.Views},
	}, nil
}

// benchTune measures one full Tune call under the given config and
// returns the row plus the cache hit rate of a single representative run.
func (f *tunerFixture) benchTune(name string, cfg core.Config) (BenchRow, error) {
	var tuneErr error
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// A fresh tuner per iteration: the cost cache is part of
			// the work being measured.
			tuner := core.NewTuner(cfg, f.opt)
			if _, err := tuner.Tune(f.cur, f.win); err != nil {
				tuneErr = err
				b.FailNow()
			}
		}
	})
	if tuneErr != nil {
		return BenchRow{}, tuneErr
	}
	row := BenchRow{
		Name:        name,
		Workers:     cfg.TuneWorkers,
		Iterations:  res.N,
		NsPerOp:     res.NsPerOp(),
		AllocsPerOp: res.AllocsPerOp(),
		BytesPerOp:  res.AllocedBytesPerOp(),
	}
	tuner := core.NewTuner(cfg, f.opt)
	if _, err := tuner.Tune(f.cur, f.win); err != nil {
		return BenchRow{}, err
	}
	if hits, misses := tuner.CacheStats(); hits+misses > 0 {
		row.CacheHitRate = float64(hits) / float64(hits+misses)
	}
	return row, nil
}

// Bench runs the benchmark pipeline: the tuner's reorganization decision
// at worker counts 1, 2, 4 and 8, the knapsack DP in isolation, and a
// short concurrent-serving soak.
func Bench(c Config) (*BenchReport, error) {
	rep := &BenchReport{Host: c.host()}

	f, err := newTunerFixture(c.Data)
	if err != nil {
		return nil, err
	}
	rep.CandidateViews = f.cur.HV.Len()

	for _, w := range []int{1, 2, 4, 8} {
		cfg := f.cfg
		cfg.TuneWorkers = w
		row, err := f.benchTune(fmt.Sprintf("tuner/workers=%d", w), cfg)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)
	}

	kn := testing.Benchmark(func(b *testing.B) {
		gb := int64(1) << 30
		items := make([]*core.Item, 48)
		for i := range items {
			size := int64(i%13+1) * gb / 4
			items[i] = &core.Item{Size: size, MoveToDW: size, BnDW: float64(100 + i*7%91)}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			core.PackKnapsackDW(items, 400*gb, 10*gb, 0)
		}
	})
	rep.Rows = append(rep.Rows, BenchRow{
		Name:        "knapsack/48items",
		Iterations:  kn.N,
		NsPerOp:     kn.NsPerOp(),
		AllocsPerOp: kn.AllocsPerOp(),
		BytesPerOp:  kn.AllocedBytesPerOp(),
	})

	// One short serving soak: ns/op is wall clock per completed query.
	sc := DefaultSoak(c)
	sc.Variant = multistore.VariantMSMiso
	sc.Sessions = 4
	sc.Queries = 8
	sc.Timeout = 0
	start := time.Now()
	sr, err := Soak(sc)
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	done := sr.Serve.Completed
	if done == 0 {
		done = 1
	}
	rep.Rows = append(rep.Rows, BenchRow{
		Name:       "serve/soak4x8",
		Workers:    sc.Workers,
		Iterations: done,
		NsPerOp:    wall.Nanoseconds() / int64(done),
	})
	return rep, nil
}
