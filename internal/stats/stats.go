// Package stats provides cardinality and byte-size estimation for logical
// plans. Estimates feed the what-if cost models of both stores. A feedback
// cache keyed by a subtree's structural id (logical.Node.ID, which stands
// for its canonical signature) records actual sizes observed during
// execution, so repeated subexpressions — the common case in the
// evolving-analyst workload — are costed from truth rather than heuristics.
package stats

import (
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"miso/internal/expr"
	"miso/internal/logical"
	"miso/internal/storage"
)

// Stat is the estimated (or observed) size of a relation.
type Stat struct {
	Rows  int64
	Bytes int64 // logical bytes (scaled)
}

// AvgRowBytes returns Bytes/Rows, guarding empty relations.
func (s Stat) AvgRowBytes() int64 {
	if s.Rows <= 0 {
		return 0
	}
	return s.Bytes / s.Rows
}

// Estimator estimates subtree output sizes. It is safe for concurrent
// use: the feedback cache sits behind an internal RWMutex, so the
// serving layer's workers may record observations while other
// goroutines estimate. Estimates are monotone in observation order but
// otherwise independent of interleaving — concurrent recording never
// corrupts a stat, it only decides which observation of the same
// subtree lands last.
type Estimator struct {
	cat *storage.Catalog

	mu      sync.RWMutex
	cache   map[uint64]observed // by logical.Node.ID
	version atomic.Uint64       // written under mu; see Version
}

// observed is one recorded truth and the logs its subtree's Scan leaves
// read, which decide whether an append to a log makes it stale.
type observed struct {
	stat Stat
	logs []string
}

// NewEstimator builds an estimator over the catalog's base data.
func NewEstimator(cat *storage.Catalog) *Estimator {
	return &Estimator{cat: cat, cache: map[uint64]observed{}}
}

// Version moves whenever an estimate may read differently — a stat stored
// over none or over a different one, a log's content changed
// (InvalidateLog) — and at no other time, so an estimate computed while it
// read v holds while it reads v.
func (e *Estimator) Version() uint64 { return e.version.Load() }

// Record stores the observed size of a subtree. Recording the stat the
// cache already holds for the subtree writes nothing: an id fixes its
// subtree, so the logs it scans are the held ones too.
func (e *Estimator) Record(n *logical.Node, s Stat) {
	id := n.ID()
	e.mu.RLock()
	held, ok := e.cache[id]
	e.mu.RUnlock()
	if ok && held.stat == s {
		return
	}
	o := observed{stat: s}
	n.Walk(func(m *logical.Node) {
		if m.Kind == logical.KindScan && !slices.Contains(o.logs, m.LogName) {
			o.logs = append(o.logs, m.LogName)
		}
	})
	e.mu.Lock()
	defer e.mu.Unlock()
	e.version.Add(1)
	e.cache[id] = o
}

// RecordView stores the observed size of a materialized view under the id
// of a ViewScan of it, so plans rewritten to use the view are costed
// accurately.
func (e *Estimator) RecordView(name string, s Stat) {
	e.Record(logical.NewViewScan(name, nil), s)
}

// InvalidateLog drops every recorded stat whose subtree scans the log and
// reports how many it dropped; used when the log's data changes and the
// truths derived from it go stale. It moves Version whatever it drops: base
// estimates read the log's size, which changed with its content.
func (e *Estimator) InvalidateLog(name string) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := 0
	for id, o := range e.cache {
		if slices.Contains(o.logs, name) {
			delete(e.cache, id)
			n++
		}
	}
	e.version.Add(1)
	return n
}

// Estimate returns the estimated output size of the subtree: the feedback
// cache's stat for it, else one derived from its children's estimates. It
// reads only ids, which are set when a node is built.
func (e *Estimator) Estimate(n *logical.Node) Stat {
	if s, ok := e.Lookup(n.ID()); ok {
		return s
	}
	var l, r Stat
	var in *storage.Schema
	switch n.Kind {
	case logical.KindScan, logical.KindExtract, logical.KindViewScan:
	default:
		l, in = e.Estimate(n.Children[0]), n.Children[0].Schema()
		if n.Kind == logical.KindJoin {
			r = e.Estimate(n.Children[1])
		}
	}
	return e.Derive(n, l, r, in)
}

// Lookup returns the stat the feedback cache holds for the subtree with the
// given id.
func (e *Estimator) Lookup(id uint64) (Stat, bool) {
	e.mu.RLock()
	o, ok := e.cache[id]
	e.mu.RUnlock()
	return o.stat, ok
}

// Derive is the estimate of a node the feedback cache holds nothing for,
// from its children's estimates: l is the first child's (r a join's right
// side's) and in the first child's schema, which a projection reads. Scan,
// Extract and ViewScan read none of them. A caller that walks a plan bottom
// up gets Estimate's answers from Lookup and Derive alone.
func (e *Estimator) Derive(n *logical.Node, l, r Stat, in *storage.Schema) Stat {
	var s Stat
	switch n.Kind {
	case logical.KindScan:
		s = e.logStat(n.LogName)
	case logical.KindExtract:
		base := e.logStat(n.Children[0].LogName)
		// Extracted columns are a fraction of the raw record; JSON keys
		// and punctuation are shed, so roughly proportional to the
		// field count with a floor.
		total := 8
		if log, err := e.cat.Log(n.Children[0].LogName); err == nil {
			total = log.FieldTypes.Len()
		}
		frac := float64(len(n.Fields)) / float64(total)
		if frac > 1 {
			frac = 1
		}
		s = Stat{Rows: base.Rows, Bytes: int64(float64(base.Bytes) * (0.1 + 0.75*frac))}
	case logical.KindFilter:
		s = scale(l, Selectivity(n.Pred))
	case logical.KindProject:
		frac := float64(len(n.Projs)) / float64(maxInt(in.Len(), 1))
		if frac > 1.5 {
			frac = 1.5
		}
		s = Stat{Rows: l.Rows, Bytes: int64(float64(l.Bytes) * frac)}
	case logical.KindJoin:
		// Foreign-key style heuristic: output near the larger input.
		rows := maxInt64(l.Rows, r.Rows)
		if n.JoinType == logical.JoinLeft && l.Rows > rows {
			rows = l.Rows
		}
		width := l.AvgRowBytes() + r.AvgRowBytes()
		s = Stat{Rows: rows, Bytes: rows * maxInt64(width, 8)}
	case logical.KindAggregate:
		var rows int64 = 1
		if len(n.GroupBy) > 0 {
			// Group count grows sublinearly with input size.
			rows = int64(math.Pow(float64(maxInt64(l.Rows, 1)), 0.67))
			if rows > l.Rows {
				rows = l.Rows
			}
			if rows < 1 {
				rows = 1
			}
		}
		width := int64(16 * (len(n.GroupBy) + len(n.Aggs)))
		s = Stat{Rows: rows, Bytes: rows * width}
	case logical.KindDistinct:
		s = scale(l, 0.5)
	case logical.KindSort:
		s = l
	case logical.KindLimit:
		rows := minInt64(int64(n.LimitN), l.Rows)
		s = Stat{Rows: rows, Bytes: rows * maxInt64(l.AvgRowBytes(), 8)}
	case logical.KindViewScan:
		// Unrecorded views (hypothetical) fall back to a token size.
		s = Stat{Rows: 1000, Bytes: 64 * 1000}
	}
	if s.Rows < 0 {
		s.Rows = 0
	}
	if s.Bytes < 0 {
		s.Bytes = 0
	}
	return s
}

func (e *Estimator) logStat(name string) Stat {
	log, err := e.cat.Log(name)
	if err != nil {
		return Stat{}
	}
	return Stat{Rows: int64(log.NumLines()), Bytes: log.LogicalBytes()}
}

func scale(s Stat, f float64) Stat {
	return Stat{
		Rows:  int64(float64(s.Rows) * f),
		Bytes: int64(float64(s.Bytes) * f),
	}
}

// Selectivity estimates the fraction of rows passing a predicate using
// textbook heuristics.
func Selectivity(p expr.Expr) float64 {
	switch v := p.(type) {
	case *expr.BinOp:
		switch v.Op {
		case "AND":
			return clamp(Selectivity(v.L) * Selectivity(v.R))
		case "OR":
			l, r := Selectivity(v.L), Selectivity(v.R)
			return clamp(l + r - l*r)
		case "=":
			return 0.1
		case "!=":
			return 0.9
		case "<", "<=", ">", ">=":
			return 0.33
		case "LIKE":
			return 0.25
		default:
			return 0.5
		}
	case *expr.Not:
		return clamp(1 - Selectivity(v.E))
	case *expr.In:
		s := 0.1 * float64(len(v.Items))
		if v.Neg {
			s = 1 - s
		}
		return clamp(s)
	case *expr.IsNull:
		if v.Neg {
			return 0.95
		}
		return 0.05
	case *expr.Func:
		// Boolean UDFs (e.g. IS_WEEKEND) pass a moderate fraction.
		return 0.4
	case *expr.Const:
		if v.Val.Bool() {
			return 1
		}
		return 0
	default:
		return 0.5
	}
}

func clamp(f float64) float64 {
	if f < 0.001 {
		return 0.001
	}
	if f > 1 {
		return 1
	}
	return f
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func maxInt64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func minInt64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
