package storage

import (
	"fmt"
	"sort"
	"sync"
)

// Catalog tracks the base data visible to the query layer: the raw logs in
// the big data store. Materialized views are tracked separately by each
// store's design (see the views, hv and dw packages); the catalog only knows
// about base data so that the "queries are posed on the base data in HDFS"
// role split of the paper is preserved.
type Catalog struct {
	mu   sync.RWMutex
	logs map[string]*LogFile
	// adds counts AddLog calls: the only catalog writes that can change a
	// schema a plan was built against (appends and resets change contents).
	adds uint64
	// retired sums the generations of the logs AddLog replaced.
	retired uint64
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{logs: make(map[string]*LogFile)}
}

// AddLog registers a log file. Re-registering a name replaces the previous
// log (logs are append-only in HDFS; replacement models a fresh generation).
func (c *Catalog) AddLog(l *LogFile) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.logs[l.Name]; ok {
		c.retired += uint64(old.Generation)
	}
	c.logs[l.Name] = l
	c.adds++
}

// SchemaVersion moves whenever a log is registered or replaced, and at no
// other time: a plan built while it read v stays valid while it reads v.
func (c *Catalog) SchemaVersion() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.adds
}

// Log returns the named log.
func (c *Catalog) Log(name string) (*LogFile, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	l, ok := c.logs[name]
	if !ok {
		return nil, fmt.Errorf("storage: unknown log %q", name)
	}
	return l, nil
}

// Generation reports the named log's current generation (ok=false for an
// unknown log): the probe views stamp themselves with at materialization
// (View.StampGenerations) and are checked for staleness against (View.Stale).
func (c *Catalog) Generation(name string) (int, bool) {
	l, err := c.Log(name)
	if err != nil {
		return 0, false
	}
	return l.Generation, true
}

// GenerationMoves moves whenever some log's generation changed (a Reset of
// a registered log, an AddLog) and at no other time, so a sweep over
// generations that read m holds while it reads m: it is the AddLog count
// plus every generation the catalog's logs, current and replaced, reached.
func (c *Catalog) GenerationMoves() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	n := c.adds + c.retired
	for _, l := range c.logs {
		n += uint64(l.Generation)
	}
	return n
}

// HasLog reports whether a log with this name exists.
func (c *Catalog) HasLog(name string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.logs[name]
	return ok
}

// LogNames returns the sorted names of all registered logs.
func (c *Catalog) LogNames() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := make([]string, 0, len(c.logs))
	for n := range c.logs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TotalLogicalBytes sums the logical size of all logs; this is the "base
// data size" against which view storage budgets are expressed (e.g. Bh=2x).
func (c *Catalog) TotalLogicalBytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var n int64
	for _, l := range c.logs {
		n += l.LogicalBytes()
	}
	return n
}
