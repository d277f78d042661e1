package multistore

import (
	"miso/internal/logical"
	"miso/internal/mqo"
	"miso/internal/storage"
)

// ReuseConfig configures the cross-query reuse plane: the content-hashed
// semantic result/subresult cache. The zero value disables the plane
// entirely — a disabled system takes the exact pre-reuse code path, so
// its results, metrics, and StateDigest are byte-identical to a build
// without the plane.
type ReuseConfig struct {
	// Enabled turns on the semantic cache: repeated plans over unchanged
	// logs, and HV cuts over them, are answered from digest-verified
	// materializations.
	Enabled bool
	// CacheBytes bounds the semantic cache's materialized results. Zero
	// means DefaultCacheBytes.
	CacheBytes int64
}

// DefaultCacheBytes is the semantic cache bound when ReuseConfig.Enabled
// is set with CacheBytes zero.
const DefaultCacheBytes int64 = 64 << 20

// ReuseStats snapshots the reuse plane.
type ReuseStats struct {
	Cache mqo.CacheStats
}

// reusePlane is the per-System reuse state. It doubles as the
// mqo.VersionSource, reading the catalog.
type reusePlane struct {
	cache *mqo.Cache
	cat   *storage.Catalog
}

// LogVersion implements mqo.VersionSource. A registered log only grows, so
// its generation is 0 and its line count is its version. Appends change the
// count under s.mu, and every fingerprint is taken under s.mu too.
func (p *reusePlane) LogVersion(name string) (gen, lines int, ok bool) {
	log, err := p.cat.Log(name)
	if err != nil {
		return 0, 0, false
	}
	return 0, log.NumLines(), true
}

func newReusePlane(cfg ReuseConfig, cat *storage.Catalog) *reusePlane {
	capBytes := cfg.CacheBytes
	if capBytes <= 0 {
		capBytes = DefaultCacheBytes
	}
	return &reusePlane{cache: mqo.NewCache(capBytes), cat: cat}
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

// ReuseStats snapshots the reuse plane's cache counters; zero when the
// plane is disabled.
func (s *System) ReuseStats() ReuseStats {
	if s.reuse == nil {
		return ReuseStats{}
	}
	return ReuseStats{Cache: s.reuse.cache.Stats()}
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
