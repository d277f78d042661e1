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
}

// NewCatalog returns an empty catalog.
func NewCatalog() *Catalog {
	return &Catalog{logs: make(map[string]*LogFile)}
}

// AddLog registers a log file. A registered log only grows (logs are
// append-only in HDFS), so registering a name twice panics, as
// database/sql.Register does: nothing derived from the first log — views,
// statistics, plans, cached results — would notice the second.
func (c *Catalog) AddLog(l *LogFile) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.logs[l.Name]; ok {
		panic(fmt.Sprintf("storage: AddLog called twice for log %q", l.Name))
	}
	c.logs[l.Name] = l
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
