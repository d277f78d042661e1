package multistore

import (
	"miso/internal/logical"
	"miso/internal/storage"
	"miso/internal/views"
)

// ReuseConfig configures the cross-query reuse plane: full-query answers
// and cut subresults kept as result views. The zero value disables the
// plane entirely — a disabled system takes the exact pre-reuse code path,
// so its results, metrics, and StateDigest are byte-identical to a build
// without the plane.
type ReuseConfig struct {
	// Enabled turns on the result views: repeated plans over unchanged
	// logs, and HV cuts over them, are answered from checksum-verified
	// materializations.
	Enabled bool
	// CacheBytes bounds the in-memory bytes of the result views' tables.
	// Zero means DefaultCacheBytes.
	CacheBytes int64
}

// DefaultCacheBytes is the result views' bound when ReuseConfig.Enabled is
// set with CacheBytes zero.
const DefaultCacheBytes int64 = 64 << 20

// ReuseStats snapshots the reuse plane.
type ReuseStats struct {
	Cache CacheStats
}

// CacheStats is what the result views hold.
type CacheStats struct {
	Entries int   // result views held
	Bytes   int64 // the in-memory bytes of their tables
}

// resultBytes measures a result view by the memory its table holds.
func resultBytes(v *views.View) int64 { return v.Table.RawBytes() }

// heldResult returns the answer a result view holds for n, stamped as used
// by query seq. Result views match on the exact tier only. Callers hold
// s.mu.
func (s *System) heldResult(n *logical.Node, seq int) (*storage.Table, bool) {
	v, ok := s.results.ByID(n.ID())
	return s.settleResult(v, ok && v.Verify(), seq)
}

// settleResult serves v, a result view the set holds (nil for none), as
// query seq's: stamped as used when its table verified, removed otherwise —
// a view whose table no longer hashes to its admission-time checksum is
// never served, and the caller sees a miss. Callers hold s.mu.
func (s *System) settleResult(v *views.View, verified bool, seq int) (*storage.Table, bool) {
	switch {
	case v == nil:
		return nil, false
	case !verified:
		s.results.Remove(v.Name)
		return nil, false
	}
	s.results.Touch(v.Name, seq)
	return v.Table, true
}

// admitResult keeps t as the answer of the raw subtree n, computed by query
// seq, then evicts least-recently-used result views back under the bound;
// an answer larger than the whole bound is not admitted. The ids of a raw
// subtree and of the relation it computes stay one to one while no log
// grows, and every append clears the set (invalidateReuse), so the node's
// id is the whole key, and the view carries no subsumption descriptor.
// Callers hold s.mu.
func (s *System) admitResult(n *logical.Node, t *storage.Table, seq int) {
	bound := s.cfg.Reuse.CacheBytes
	if bound <= 0 {
		bound = DefaultCacheBytes
	}
	if t.RawBytes() > bound {
		return
	}
	s.results.Add(views.NewExact(n, t, seq))
	views.EvictLRUBy(s.results, bound, resultBytes)
}

// invalidateReuse drops every result view. Callers hold s.mu. It fires on
// every trigger that can change what a raw subtree answers or taint what a
// result view holds: log appends, the start of a reorganization (which
// also keeps the tuner's what-if probing deterministic — the optimizer's
// reuse probe is all-false while it runs), and audit quarantine of corrupt
// views whose bytes may have flowed into held results.
func (s *System) invalidateReuse() {
	if s.results != nil {
		s.results.Reset()
	}
}

// InvalidateReuse drops every result view under the system's lock; a
// system without the reuse plane ignores it. Reorganize already clears
// first thing, so callers need it only outside a reorganization.
func (s *System) InvalidateReuse() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.invalidateReuse()
}

// ReuseStats snapshots the result views; zero when the plane is disabled.
func (s *System) ReuseStats() ReuseStats {
	if s.results == nil {
		return ReuseStats{}
	}
	var st ReuseStats
	for _, v := range s.results.Members() {
		st.Cache.Entries++
		st.Cache.Bytes += resultBytes(v)
	}
	return st
}
