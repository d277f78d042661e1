// Package views implements opportunistic materialized views: the
// by-products of query processing that MISO places across the two stores.
// A view pairs a defining logical subtree (and its descriptor) with its
// materialized table. Matching supports two tiers: exact signature equality,
// and SPJ subsumption (same extract/join skeleton, view filters a subset of
// the node's, view columns a superset of what the node needs), in which case
// the node is rewritten as ViewScan -> residual Filter -> Project. A Set
// resolves the first tier through its name map and the second through an
// index on the skeleton, so a lookup touches only views that can match.
package views

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"sync"

	"miso/internal/expr"
	"miso/internal/logical"
	"miso/internal/storage"
)

// View is one opportunistic materialized view.
type View struct {
	// Name is a stable identifier derived from the signature.
	Name string
	// Sig is the canonical signature of the defining subtree.
	Sig string
	// Def is the defining logical subtree (owned clone).
	Def *logical.Node
	// Desc is the subsumption descriptor of Def.
	Desc *logical.Descriptor
	// Table is the materialized result.
	Table *storage.Table
	// CreatedSeq is the workload sequence number at creation time; used
	// by LRU-style policies and by the benefit decay.
	CreatedSeq int
	// LastUsedSeq tracks the last query that used the view.
	LastUsedSeq int
	// ExactOnly restricts matching to exact signature equality. Passive
	// caches (MS-LRU) retain working sets syntactically: the cached
	// bytes answer only the identical subexpression, not a subsuming
	// rewrite.
	ExactOnly bool
	// Checksum is the FNV-64a content fingerprint of Table, stamped at
	// materialization. Verify recomputes it to detect corruption before
	// the view is matched or restored from a checkpoint.
	Checksum uint64
	// LogGens records, per base log scanned by Def, the log generation the
	// view was materialized from. A view whose recorded generation trails
	// the catalog's is stale and must be quarantined, not served.
	LogGens map[string]int
}

// NameForSig derives the stable view name for a signature.
func NameForSig(sig string) string {
	h := fnv.New64a()
	h.Write([]byte(sig))
	return fmt.Sprintf("v_%016x", h.Sum64())
}

// New creates a view from a defining subtree and its materialization,
// stamping the content checksum.
func New(def *logical.Node, table *storage.Table, seq int) *View {
	sig := def.Signature()
	return &View{
		Name:        NameForSig(sig),
		Sig:         sig,
		Def:         def.Clone(),
		Desc:        logical.Describe(def),
		Table:       table,
		CreatedSeq:  seq,
		LastUsedSeq: seq,
		Checksum:    storage.ChecksumTable(table),
	}
}

// BaseLogs returns the names of the base logs scanned by the view's
// defining subtree, in first-visit order.
func (v *View) BaseLogs() []string {
	var logs []string
	seen := map[string]bool{}
	var walk func(n *logical.Node)
	walk = func(n *logical.Node) {
		if n == nil {
			return
		}
		if n.Kind == logical.KindScan && !seen[n.LogName] {
			seen[n.LogName] = true
			logs = append(logs, n.LogName)
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(v.Def)
	return logs
}

// StampGenerations records the current generation of every base log the
// view derives from. gen reports the generation for a log name (ok=false
// when the log is unknown, in which case no stamp is recorded for it).
func (v *View) StampGenerations(gen func(log string) (int, bool)) {
	logs := v.BaseLogs()
	if len(logs) == 0 {
		return
	}
	v.LogGens = make(map[string]int, len(logs))
	for _, name := range logs {
		if g, ok := gen(name); ok {
			v.LogGens[name] = g
		}
	}
}

// Stale reports whether any base log has advanced past the generation the
// view was materialized from. Views without stamps are never stale.
func (v *View) Stale(gen func(log string) (int, bool)) bool {
	for name, g := range v.LogGens {
		if cur, ok := gen(name); ok && cur > g {
			return true
		}
	}
	return false
}

// Verify recomputes the content checksum and compares it against the
// stamped value. Views stamped with a zero checksum and a nil table (not
// yet materialized) verify trivially.
func (v *View) Verify() bool {
	if v.Checksum == 0 && v.Table == nil {
		return true
	}
	return storage.ChecksumTable(v.Table) == v.Checksum
}

// SizeBytes returns the view's logical storage footprint.
func (v *View) SizeBytes() int64 {
	if v.Table == nil {
		return 0
	}
	return v.Table.LogicalBytes()
}

// Clone deep-copies the view: the definition and table are cloned, the
// generation stamps copied. The descriptor is shared — it is derived from
// the definition and immutable after creation.
func (v *View) Clone() *View {
	c := *v
	if v.Def != nil {
		c.Def = v.Def.Clone()
	}
	if v.Table != nil {
		c.Table = v.Table.Clone()
	}
	if v.LogGens != nil {
		c.LogGens = make(map[string]int, len(v.LogGens))
		for k, g := range v.LogGens {
			c.LogGens[k] = g
		}
	}
	return &c
}

// Match describes how a view can answer a plan node.
type Match struct {
	View *View
	// Exact means signatures are identical and the view replaces the node
	// as-is.
	Exact bool
	// Residual holds filter conjuncts to apply on top of the view.
	Residual []expr.Expr
	// OutCols is the column order the rewritten subtree must produce.
	OutCols []string
}

// MatchDescriptor matches a precomputed node descriptor against a view's
// subsumption descriptor. It reads both without mutating either, so it is
// safe to call concurrently. ExactOnly views and exact signature matches
// are the caller's to handle: this is subsumption only.
func MatchDescriptor(nd *logical.Descriptor, v *View) (*Match, bool) {
	if !nd.Simple || !v.Desc.Simple {
		return nil, false
	}
	if nd.SourceSig != v.Desc.SourceSig {
		return nil, false
	}
	if !v.Desc.ConjunctsSubsetOf(nd) {
		return nil, false
	}
	residual := nd.ResidualConjuncts(v.Desc)
	needed := make([]string, 0, len(nd.ColOrder))
	needed = append(needed, nd.ColOrder...)
	for _, r := range residual {
		needed = append(needed, expr.Columns(r)...)
	}
	if !v.Desc.HasAllColumns(needed) {
		return nil, false
	}
	return &Match{View: v, Residual: residual, OutCols: nd.ColOrder}, true
}

// Rewrite produces the replacement subtree for the matched node.
func (m *Match) Rewrite() (*logical.Node, error) {
	scan := logical.NewViewScan(m.View.Name, m.View.Table.Schema)
	if m.Exact {
		return scan, nil
	}
	node := scan
	if pred := expr.AndAll(m.Residual); pred != nil {
		f, err := logical.NewFilterNode(node, pred)
		if err != nil {
			return nil, fmt.Errorf("views: residual filter: %w", err)
		}
		node = f
	}
	// Project to the node's expected column order (and drop extras).
	same := len(m.OutCols) == node.Schema().Len()
	if same {
		for i, c := range m.OutCols {
			if node.Schema().Columns[i].Name != c {
				same = false
				break
			}
		}
	}
	if !same {
		projs := make([]logical.Proj, len(m.OutCols))
		for i, c := range m.OutCols {
			projs[i] = logical.Proj{Expr: &expr.ColRef{Name: c}, Name: c}
		}
		p, err := logical.NewProjectNode(node, projs)
		if err != nil {
			return nil, fmt.Errorf("views: reprojection: %w", err)
		}
		node = p
	}
	return node, nil
}

// Set is a named collection of views (one store's design). The zero value
// is not usable; use NewSet. The set's membership is internally locked, so
// concurrent observers (serving-layer metrics, soak probes) can read it
// while the owning store mutates it; compound read-modify-write sequences
// and mutation of the View structs themselves are still serialized by the
// multistore system's mutex (see DESIGN.md "Concurrency model").
type Set struct {
	mu     sync.RWMutex
	byName map[string]*View
	// bySource indexes the views that can subsume a node — those with a
	// Simple descriptor — by their skeleton (Desc.SourceSig), the one
	// field a subsumption match needs equal.
	bySource map[string][]*View
}

// NewSet returns an empty set.
func NewSet() *Set {
	return &Set{byName: map[string]*View{}, bySource: map[string][]*View{}}
}

// Add inserts or replaces a view.
func (s *Set) Add(v *View) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.addLocked(v)
}

func (s *Set) addLocked(v *View) {
	s.removeLocked(v.Name)
	s.byName[v.Name] = v
	if v.Desc != nil && v.Desc.Simple {
		s.bySource[v.Desc.SourceSig] = append(s.bySource[v.Desc.SourceSig], v)
	}
}

// Remove deletes a view by name.
func (s *Set) Remove(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.removeLocked(name)
}

func (s *Set) removeLocked(name string) {
	v, ok := s.byName[name]
	if !ok {
		return
	}
	delete(s.byName, name)
	if v.Desc == nil || !v.Desc.Simple {
		return
	}
	sig := v.Desc.SourceSig
	if peers := slices.DeleteFunc(s.bySource[sig], func(p *View) bool { return p == v }); len(peers) > 0 {
		s.bySource[sig] = peers
	} else {
		delete(s.bySource, sig)
	}
}

// Get fetches a view by name.
func (s *Set) Get(name string) (*View, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	v, ok := s.byName[name]
	return v, ok
}

// Has reports whether the named view is present.
func (s *Set) Has(name string) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	_, ok := s.byName[name]
	return ok
}

// Len returns the number of views.
func (s *Set) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.byName)
}

// TotalBytes sums the logical sizes of all views.
func (s *Set) TotalBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, v := range s.byName {
		n += v.SizeBytes()
	}
	return n
}

// All returns the views sorted by name for determinism.
func (s *Set) All() []*View {
	s.mu.RLock()
	out := make([]*View, 0, len(s.byName))
	for _, v := range s.byName {
		out = append(out, v)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Clone returns a shallow copy of the set (views shared).
func (s *Set) Clone() *Set {
	c := NewSet()
	c.ReplaceAll(s)
	return c
}

// Reset empties the set in place. Unlike reassigning a store's Views field
// to a fresh Set, this keeps the Set pointer stable, so concurrent readers
// holding the store never observe a torn pointer swap.
func (s *Set) Reset() { s.ReplaceAll(nil) }

// ReplaceAll swaps the set's contents for src's (views shared, src left
// unchanged; nil empties the set). Like Reset, it mutates in place so the
// Set pointer held by concurrent readers stays valid across a design swap.
// ReplaceAll(s) is a no-op.
func (s *Set) ReplaceAll(src *Set) {
	if s == src {
		return
	}
	var next []*View
	if src != nil {
		src.mu.RLock()
		for _, v := range src.byName {
			next = append(next, v)
		}
		src.mu.RUnlock()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byName = make(map[string]*View, len(next))
	s.bySource = map[string][]*View{}
	for _, v := range next {
		s.addLocked(v)
	}
}

// BestMatch finds the highest-value view in the set that answers n: the
// view with n's signature if there is one, otherwise the smallest view
// (cheapest to read) that subsumes n, the least name breaking a size tie.
// The exact tier is one lookup under the name New derives from the
// signature; only when it misses is n described, and then matched against
// just the views sharing its skeleton.
func (s *Set) BestMatch(n *logical.Node) (*Match, bool) {
	sig := n.Signature()
	s.mu.RLock()
	defer s.mu.RUnlock()
	if v, ok := s.byName[NameForSig(sig)]; ok && v.Sig == sig {
		return &Match{View: v, Exact: true}, true
	}
	nd := logical.Describe(n)
	if !nd.Simple {
		return nil, false
	}
	var best *Match
	for _, v := range s.bySource[nd.SourceSig] {
		if v.ExactOnly || best != nil && !smaller(v, best.View) {
			continue
		}
		if m, ok := MatchDescriptor(nd, v); ok {
			best = m
		}
	}
	return best, best != nil
}

func smaller(a, b *View) bool {
	if sa, sb := a.SizeBytes(), b.SizeBytes(); sa != sb {
		return sa < sb
	}
	return a.Name < b.Name
}
