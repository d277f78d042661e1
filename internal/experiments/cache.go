// Cache soak: the cross-query reuse plane under a repeated concurrent
// workload. Two identically configured MS-MISO systems serve the same
// sessions×rounds submission schedule through the serving frontend — one
// with the reuse plane disabled (every query executes cold), one with it
// enabled (repeats hit the semantic result cache, concurrent identical
// queries piggyback on the leader's flight). The report records the
// throughput gain, hit rate, and dedup ratio, and the acceptance gate
// requires every reuse-served answer to be digest-identical to the cold
// system's. BenchCache writes the machine-readable report CI uploads as
// BENCH_cache.json.
package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"miso/internal/multistore"
	"miso/internal/serve"
	"miso/internal/storage"
	"miso/internal/workload"
)

// CacheConfig parameterizes the cache soak.
type CacheConfig struct {
	Exp Config
	// Sessions is the number of concurrent client sessions; all sessions
	// walk the workload in the same order, so identical queries overlap
	// and the single-flight path is exercised alongside the cache.
	Sessions int
	// Rounds is how many full workload passes each session submits.
	Rounds int
	// Workers and Queue configure the serving frontend.
	Workers int
	Queue   int
	// CacheBytes caps the semantic result cache (0 = the plane default).
	CacheBytes int64
}

// DefaultCache returns the cache soak defaults.
func DefaultCache(cfg Config) CacheConfig {
	return CacheConfig{Exp: cfg, Sessions: 4, Rounds: 3, Workers: 4}
}

// CacheReport is the machine-readable cache soak report
// (BENCH_cache.json in CI).
type CacheReport struct {
	Host
	Sessions int `json:"sessions"`
	Rounds   int `json:"rounds"`

	// Throughput: the same submission schedule against the reuse-disabled
	// and reuse-enabled backends.
	Submitted  int     `json:"submitted"`
	OffSeconds float64 `json:"off_seconds"`
	OnSeconds  float64 `json:"on_seconds"`
	OffQPS     float64 `json:"off_qps"`
	OnQPS      float64 `json:"on_qps"`
	SpeedupX   float64 `json:"speedup_x"`

	// Reuse-plane accounting from the enabled run.
	Hits        int     `json:"hits"`
	Misses      int     `json:"misses"`
	Piggybacked int     `json:"piggybacked"`
	SubplanHits int     `json:"subplan_hits"`
	HitRate     float64 `json:"hit_rate"`
	DedupRatio  float64 `json:"dedup_ratio"`

	// Correctness: every answer served by the reuse-enabled run (cached,
	// piggybacked, or cold) digests identically to the cold system's
	// answer for the same SQL.
	DigestsMatch bool `json:"digests_match"`

	// Drain-barrier trigger: after the timed soak, an explicit
	// serve.Reorganize with the reorg hook wired to InvalidateReuse must
	// leave the cache empty.
	ReorgHookFired   bool `json:"reorg_hook_fired"`
	EntriesAfterSoak int  `json:"entries_after_soak"`
	EntriesPostReorg int  `json:"entries_post_reorg"`
}

// Passed reports whether the soak met the acceptance gate: reuse wins at
// least 2x throughput on the repeated workload, the cache actually served
// hits, answers are digest-identical to cold execution, and the serve
// drain-barrier invalidation trigger works.
func (r *CacheReport) Passed() bool {
	return r.SpeedupX >= 2 && r.HitRate > 0 && r.DigestsMatch &&
		r.ReorgHookFired && r.EntriesPostReorg == 0
}

// WriteText renders the report as a human-readable summary.
func (r *CacheReport) WriteText(w io.Writer) {
	fprintf(w, "cache soak (%s/%s, %d CPU, scale=%s): %d sessions x %d rounds, %d queries\n",
		r.GOOS, r.GOARCH, r.NumCPU, r.Scale, r.Sessions, r.Rounds, r.Submitted)
	fprintf(w, "  reuse off: %.2fs (%.0f q/s)   reuse on: %.2fs (%.0f q/s)   speedup %.2fx\n",
		r.OffSeconds, r.OffQPS, r.OnSeconds, r.OnQPS, r.SpeedupX)
	fprintf(w, "  cache: %d hits / %d misses (hit rate %.2f)   piggybacked %d (dedup %.2f)   subplan hits %d\n",
		r.Hits, r.Misses, r.HitRate, r.Piggybacked, r.DedupRatio, r.SubplanHits)
	fprintf(w, "  digests match cold execution: %v   reorg drain-barrier cleared cache: %v (%d -> %d entries)\n",
		r.DigestsMatch, r.ReorgHookFired, r.EntriesAfterSoak, r.EntriesPostReorg)
	if r.Passed() {
		fprintf(w, "  gate: PASS (speedup >= 2x, hit rate > 0, digest-identical)\n")
	} else {
		fprintf(w, "  gate: FAIL\n")
	}
}

// cacheSoakRun builds an MS-MISO backend with the reuse plane on or off
// and drives sessions×rounds workload passes through it. Automatic
// reorganization is disabled on both sides so the two runs execute the
// same schedule against a stable design (the drain-barrier invalidation
// is exercised explicitly after the timed section). Every answer is folded
// into answers: the first one seen for a SQL pins the expected data digest
// (schema + rows, name-independent) and every later answer — from either
// system — must match it. Any submission that is not served fails the run
// (at the driver's finish, which the caller owes: the server is returned
// open).
func (cc CacheConfig) cacheSoakRun(enabled bool, answers *digestCheck) (*multistore.System, *driver, time.Duration, error) {
	sys, err := cc.Exp.newSystem(multistore.VariantMSMiso, func(mc *multistore.Config) {
		mc.ReorgEvery = 0
		mc.Reuse = multistore.ReuseConfig{Enabled: enabled, CacheBytes: cc.CacheBytes}
	})
	if err != nil {
		return nil, nil, 0, err
	}
	srv := serve.NewServer(serve.Config{Workers: cc.Workers, QueueDepth: cc.Queue}, sys)
	sqls := workload.SQLs()
	d := newDriver(srv)
	d.onResult = func(_ int, q request, rep *multistore.QueryReport, err error) error {
		if err != nil {
			return err
		}
		answers.observe(q.sql, storage.ChecksumData(rep.Result))
		return nil
	}
	start := time.Now()
	d.closed(closedLoop{clients: cc.Sessions, count: cc.Rounds * len(sqls), next: func(_, i int, _ *rand.Rand) request {
		return request{sql: sqls[i%len(sqls)]}
	}})
	return sys, d, time.Since(start), nil
}

// BenchCache runs the cache soak: the reuse-disabled baseline, the
// reuse-enabled run against the same schedule, and the explicit
// drain-barrier invalidation through the serving frontend.
func BenchCache(cc CacheConfig) (*CacheReport, error) {
	rep := &CacheReport{Host: cc.Exp.host(), Sessions: cc.Sessions, Rounds: cc.Rounds}
	answers := newDigestCheck()

	offSys, off, offDur, err := cc.cacheSoakRun(false, answers)
	if err != nil {
		return nil, err
	}
	if _, err := off.finish(offSys); err != nil {
		return nil, fmt.Errorf("experiments: cache soak (reuse off): %w", err)
	}
	onSys, on, onDur, err := cc.cacheSoakRun(true, answers)
	if err != nil {
		return nil, err
	}
	defer on.srv.Close()

	submitted := cc.Sessions * cc.Rounds * len(workload.SQLs())
	rep.Submitted = submitted
	rep.OffSeconds = offDur.Seconds()
	rep.OnSeconds = onDur.Seconds()
	if rep.OffSeconds > 0 {
		rep.OffQPS = float64(submitted) / rep.OffSeconds
	}
	if rep.OnSeconds > 0 {
		rep.OnQPS = float64(submitted) / rep.OnSeconds
	}
	if rep.OnSeconds > 0 && rep.OffSeconds > 0 {
		rep.SpeedupX = rep.OffSeconds / rep.OnSeconds
	}

	m := onSys.Metrics()
	rep.Hits = m.CacheHits
	rep.Misses = m.CacheMisses
	rep.Piggybacked = m.Piggybacked
	rep.SubplanHits = m.SubplanHits
	if hm := m.CacheHits + m.CacheMisses; hm > 0 {
		rep.HitRate = float64(m.CacheHits) / float64(hm)
	}
	rep.DedupRatio = float64(m.Piggybacked) / float64(submitted)
	rep.DigestsMatch = answers.match

	// Drain-barrier trigger: an explicit reorganization through the
	// frontend runs the hook under the write gate with no query in
	// flight; the cache must come out empty.
	rep.EntriesAfterSoak = onSys.ReuseStats().Cache.Entries
	on.srv.SetReorgHook(onSys.InvalidateReuse)
	if err := on.srv.Reorganize(); err != nil {
		return nil, fmt.Errorf("experiments: cache soak reorganize: %w", err)
	}
	if _, err := on.finish(onSys); err != nil {
		return nil, fmt.Errorf("experiments: cache soak (reuse on): %w", err)
	}
	rep.EntriesPostReorg = onSys.ReuseStats().Cache.Entries
	rep.ReorgHookFired = rep.EntriesAfterSoak > 0 && rep.EntriesPostReorg == 0
	return rep, nil
}
