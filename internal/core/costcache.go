// What-if cost cache for the tuner. The serial tuner keyed its cache with
// freshly built strings ("q12|h:v_a,|d:v_b,"), paying a strings.Builder
// allocation and a sort per probe even on hits. This cache is keyed by a
// cheap fixed-size struct — the query sequence number plus FNV-64a hashes
// of the name-sorted HV and DW view sets — and is lock-striped across a
// fixed number of shards so the tuner's parallel what-if workers contend
// only when they land on the same stripe.
package core

import (
	"sort"
	"sync"

	"miso/internal/views"
)

const (
	costShards  = 16
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// costKey identifies one what-if probe: a query (by window sequence
// number) costed under a hypothetical design (by hashed sorted view-name
// set per store). Hashing trades a theoretical collision for allocation-
// free keys; FNV-64a over a universe of dozens of views makes the risk
// negligible.
type costKey struct {
	seq    int
	hv, dw uint64
}

type costShard struct {
	mu sync.Mutex
	m  map[costKey]float64
}

// costCache is the sharded, lock-striped what-if cost cache.
type costCache struct {
	shards [costShards]costShard
}

func newCostCache() *costCache {
	c := &costCache{}
	for i := range c.shards {
		c.shards[i].m = map[costKey]float64{}
	}
	return c
}

func (c *costCache) shard(k costKey) *costShard {
	h := chainHash(chainHash(chainHash(fnvOffset64, uint64(k.seq)), k.hv), k.dw)
	return &c.shards[h%costShards]
}

func (c *costCache) get(k costKey) (float64, bool) {
	s := c.shard(k)
	s.mu.Lock()
	v, ok := s.m[k]
	s.mu.Unlock()
	return v, ok
}

func (c *costCache) put(k costKey, v float64) {
	s := c.shard(k)
	s.mu.Lock()
	s.m[k] = v
	s.mu.Unlock()
}

// hashName is FNV-64a inlined so hashing never allocates (hash/fnv returns
// a heap-escaping hash.Hash64).
func hashName(s string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// chainHash folds a 64-bit value into a running FNV-64a state byte by
// byte, so chaining is order-sensitive and composes with hashName.
func chainHash(h, x uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= fnvPrime64
		x >>= 8
	}
	return h
}

// viewSetHash hashes a view set order-independently by chaining the
// per-name hashes in name-sorted order. The tuner only probes the empty
// set, singletons and pairs, which hash without allocating; larger sets
// take the general sorting path.
func viewSetHash(vs []*views.View) uint64 {
	switch len(vs) {
	case 0:
		return 0
	case 1:
		return chainHash(fnvOffset64, hashName(vs[0].Name))
	case 2:
		a, b := vs[0].Name, vs[1].Name
		if a > b {
			a, b = b, a
		}
		return chainHash(chainHash(fnvOffset64, hashName(a)), hashName(b))
	}
	names := make([]string, len(vs))
	for i, v := range vs {
		names[i] = v.Name
	}
	sort.Strings(names)
	h := uint64(fnvOffset64)
	for _, n := range names {
		h = chainHash(h, hashName(n))
	}
	return h
}
