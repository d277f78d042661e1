package mqo

import (
	"sync"
	"sync/atomic"

	"miso/internal/storage"
)

// CacheStats is a point-in-time snapshot of cache activity.
type CacheStats struct {
	Hits          int // Get served a digest-verified entry
	Misses        int // Get found nothing usable
	Puts          int // entries admitted
	Rejected      int // entries refused admission (larger than the whole cache)
	Evictions     int // entries displaced by LRU pressure
	Invalidations int // entries dropped by Clear (log append, reorg, quarantine, ...)
	Corrupt       int // entries dropped because the stored digest no longer matched
	Entries       int // current entry count
	Bytes         int64
}

type cacheEntry struct {
	fp         Fingerprint
	table      *storage.Table
	digest     uint64
	bytes      int64
	prev, next *cacheEntry
}

// Cache is a bounded, content-hashed semantic result cache: fingerprint ->
// materialized table + digest. Admission evicts least-recently-used
// entries until the entry's bytes fit the cache's byte bound. Every Get
// re-verifies the stored digest before serving; an entry whose table no
// longer hashes to its admission-time digest is dropped, never served. A
// nil *Cache is a disabled cache: every operation is a no-op.
type Cache struct {
	mu       sync.Mutex
	capBytes int64
	entries  map[Fingerprint]*cacheEntry
	head     *cacheEntry // most recently used
	tail     *cacheEntry // least recently used
	bytes    int64
	stats    CacheStats
	writes   atomic.Uint64 // written under mu; see Writes
}

// NewCache returns a cache bounded to capBytes of materialized results.
// capBytes <= 0 returns nil — the disabled cache.
func NewCache(capBytes int64) *Cache {
	if capBytes <= 0 {
		return nil
	}
	return &Cache{
		capBytes: capBytes,
		entries:  make(map[Fingerprint]*cacheEntry),
	}
}

// Get returns the cached table for fp after re-verifying its digest.
// A verified hit refreshes the entry's LRU position. A digest mismatch
// (the stored table was mutated behind our back) drops the entry and
// reports a miss: a wrong answer is never served.
func (c *Cache) Get(fp Fingerprint) (*storage.Table, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[fp]
	if !ok {
		c.stats.Misses++
		return nil, false
	}
	if storage.ChecksumData(e.table) != e.digest {
		c.stats.Corrupt++
		c.stats.Misses++
		c.removeLocked(e)
		return nil, false
	}
	c.moveToFrontLocked(e)
	c.stats.Hits++
	return e.table, true
}

// Contains reports whether fp has a cached entry, without touching LRU
// order or hit/miss counters. The optimizer's reuse probe uses this to
// discount cut costs without perturbing cache statistics.
func (c *Cache) Contains(fp Fingerprint) bool {
	if c == nil {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[fp]
	return ok
}

// Put admits a materialized result under fp, computing its digest at
// admission time. Least-recently-used entries are evicted until the new
// entry fits the byte bound; an entry larger than the whole cache is
// rejected. Re-putting an existing fingerprint refreshes the entry.
func (c *Cache) Put(fp Fingerprint, t *storage.Table) {
	if c == nil || t == nil {
		return
	}
	bytes := tableBytes(t)
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[fp]; ok {
		c.removeLocked(old)
	}
	if bytes > c.capBytes {
		c.stats.Rejected++
		return
	}
	for c.bytes+bytes > c.capBytes && c.tail != nil {
		c.stats.Evictions++
		c.removeLocked(c.tail)
	}
	e := &cacheEntry{fp: fp, table: t, digest: storage.ChecksumData(t), bytes: bytes}
	c.entries[fp] = e
	c.pushFrontLocked(e)
	c.bytes += bytes
	c.stats.Puts++
	c.writes.Add(1)
}

// Clear drops every entry and releases their bytes. It is
// the invalidation hammer: called on log appends, at the start of every
// reorganization, and when audit quarantines a view.
func (c *Cache) Clear() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := len(c.entries)
	for c.tail != nil {
		c.removeLocked(c.tail)
	}
	c.stats.Invalidations += n
}

// Writes counts every admission and every removal (eviction, Clear, a
// corrupt entry dropped); what Contains answers holds while it stands still.
func (c *Cache) Writes() uint64 {
	if c == nil {
		return 0
	}
	return c.writes.Load()
}

// Stats returns a snapshot of cache counters.
func (c *Cache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Entries = len(c.entries)
	s.Bytes = c.bytes
	return s
}

func (c *Cache) removeLocked(e *cacheEntry) {
	c.writes.Add(1)
	delete(c.entries, e.fp)
	c.unlinkLocked(e)
	c.bytes -= e.bytes
}

func (c *Cache) unlinkLocked(e *cacheEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (c *Cache) pushFrontLocked(e *cacheEntry) {
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

func (c *Cache) moveToFrontLocked(e *cacheEntry) {
	if c.head == e {
		return
	}
	c.unlinkLocked(e)
	c.pushFrontLocked(e)
}

// tableBytes estimates the resident size of a materialized table: encoded
// value bytes plus per-row and per-entry bookkeeping overhead.
func tableBytes(t *storage.Table) int64 {
	var b int64 = 256 // entry + header overhead
	for _, r := range t.Rows {
		b += 48 // row slice header + map/ptr overhead
		for _, v := range r {
			b += int64(v.EncodedSize()) + 16
		}
	}
	return b
}
