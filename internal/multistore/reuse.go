package multistore

import (
	"sync"

	"miso/internal/logical"
	"miso/internal/mqo"
)

// ReuseConfig configures the cross-query reuse plane: single-flight
// piggybacking of identical concurrent queries plus the content-hashed
// semantic result/subresult cache. The zero value disables the plane
// entirely — a disabled system takes the exact pre-reuse code path, so
// its results, metrics, and StateDigest are byte-identical to a build
// without the plane.
type ReuseConfig struct {
	// Enabled turns on both layers: the in-flight registry (concurrent
	// queries with identical canonical plans over identical log content
	// share one execution) and the semantic cache (repeated plans are
	// answered from digest-verified materializations).
	Enabled bool
	// CacheBytes bounds the semantic cache's materialized results. Zero
	// means DefaultCacheBytes.
	CacheBytes int64
}

// DefaultCacheBytes is the semantic cache bound when ReuseConfig.Enabled
// is set with CacheBytes zero.
const DefaultCacheBytes int64 = 64 << 20

// ReuseStats snapshots both reuse layers.
type ReuseStats struct {
	Cache  mqo.CacheStats
	Flight mqo.FlightStats
}

// reusePlane is the per-System reuse state. It doubles as the
// mqo.VersionSource, reading the system's log mirror.
type reusePlane struct {
	flight *mqo.Registry
	cache  *mqo.Cache
	logs   *logMirror
}

// LogVersion implements mqo.VersionSource. A registered log only grows, so
// its generation is 0 and its line count is its version.
func (p *reusePlane) LogVersion(name string) (gen, lines int, ok bool) {
	p.logs.mu.RLock()
	defer p.logs.mu.RUnlock()
	lines, ok = p.logs.lines[name]
	return 0, lines, ok
}

func newReusePlane(cfg ReuseConfig, s *System) *reusePlane {
	capBytes := cfg.CacheBytes
	if capBytes <= 0 {
		capBytes = DefaultCacheBytes
	}
	return &reusePlane{
		flight: mqo.NewRegistry(),
		cache:  mqo.NewCache(capBytes),
		logs:   &s.logs,
	}
}

// logMirror holds every log's line count as of the system's last append:
// fingerprints, which run outside s.mu so followers can overlap a leader,
// read it instead of catalog fields appends mutate.
type logMirror struct {
	mu    sync.RWMutex
	lines map[string]int
	moves uint64 // entries syncLogVersion changed, written under s.mu
}

// syncLogVersion refreshes the mirror for one log. Callers hold s.mu (the
// same critical section that appended to the log).
func (s *System) syncLogVersion(name string) {
	log, err := s.cat.Log(name)
	if err != nil {
		return
	}
	n := log.NumLines()
	s.logs.mu.Lock()
	defer s.logs.mu.Unlock()
	if s.logs.lines[name] != n {
		s.logs.lines[name] = n
		s.logs.moves++
	}
}

// invalidateReuse drops every cached result and subresult. Callers hold
// s.mu. It fires on every trigger that can change what a fingerprinted
// plan should answer or taint what a cached entry holds: log appends, the
// start of a reorganization (which also keeps the tuner's what-if probing
// deterministic — the optimizer's reuse probe is all-false while it runs),
// and audit quarantine of corrupt views whose bytes may have flowed into
// cached results.
func (s *System) invalidateReuse() {
	if s.reuse == nil {
		return
	}
	s.reuse.cache.Clear()
}

// InvalidateReuse is the drain-barrier invalidation hook: the serving
// layer calls it with the write gate held (no query in flight) before an
// online reorganization, and operators may call it any time. A system
// without the reuse plane ignores it.
func (s *System) InvalidateReuse() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.invalidateReuse()
}

// ReuseStats snapshots the reuse plane's cache and single-flight
// counters; zero when the plane is disabled.
func (s *System) ReuseStats() ReuseStats {
	if s.reuse == nil {
		return ReuseStats{}
	}
	return ReuseStats{
		Cache:  s.reuse.cache.Stats(),
		Flight: s.reuse.flight.Stats(),
	}
}

// cutFingerprint fingerprints a cut's base-data definition, expanding any
// views it reads down to raw log scans — so a cut over a view and the
// equivalent cut over raw logs share one subresult entry.
func (s *System) cutFingerprint(n *logical.Node) (mqo.Fingerprint, bool) {
	if s.reuse == nil {
		return 0, false
	}
	def := s.hv.ExpandViews(n)
	if def == nil {
		return 0, false
	}
	return mqo.HashPlan(def, s.reuse)
}
