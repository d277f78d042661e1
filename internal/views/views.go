// Package views implements opportunistic materialized views: the
// by-products of query processing that MISO places across the two stores.
// A view pairs a defining logical subtree (and its descriptor) with its
// materialized table. Matching supports two tiers: exact signature equality
// (tested on the structural ids that stand for signatures), and SPJ
// subsumption (same extract/join skeleton, view filters a subset of
// the node's, view columns a superset of what the node needs), in which case
// the node is rewritten as ViewScan -> residual Filter -> Project.
package views

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"sync"
	"sync/atomic"

	"miso/internal/expr"
	"miso/internal/logical"
	"miso/internal/storage"
)

// View is one opportunistic materialized view. A view is a value: once a Set
// holds it nothing writes it; recency (Set.Touch) and bit rot install a new
// struct in its place, so every holder keeps exactly what it took.
type View struct {
	// Name is a stable identifier derived from the signature.
	Name string
	// Sig is the canonical signature of the defining subtree.
	Sig string
	// ID is the defining subtree's structural id (logical.Node.ID), which
	// the exact tier compares: equal to a node's exactly when Sig equals the
	// node's signature. Zero never matches.
	ID uint64
	// Def is the defining logical subtree, as handed to New.
	Def *logical.Node
	// Desc is the subsumption descriptor of Def (logical.DescribeView).
	Desc *logical.Descriptor
	// Table is the materialized result.
	Table *storage.Table
	// CreatedSeq is the workload sequence number at creation time; used
	// by LRU-style policies and by the benefit decay.
	CreatedSeq int
	// LastUsedSeq tracks the last query that used the view (Set.Touch).
	LastUsedSeq int
	// Checksum is the FNV-64a content fingerprint of Table, stamped at
	// materialization. Verify recomputes it to detect corruption before
	// the view is matched or restored from a checkpoint.
	Checksum uint64
}

// NameForSig derives the stable view name for a signature.
func NameForSig(sig string) string {
	h := fnv.New64a()
	h.Write([]byte(sig))
	return fmt.Sprintf("v_%016x", h.Sum64())
}

// New creates a view from a defining subtree and its materialization,
// stamping the content checksum. The view keeps def and table, which, like
// every built plan node and table, nothing writes afterwards.
func New(def *logical.Node, table *storage.Table, seq int) *View {
	v := NewExact(def, table, seq)
	v.Desc = logical.DescribeView(def)
	return v
}

// NewExact is New without the subsumption descriptor: a view that matches
// on the exact tier alone, by id (Set.ByID), and is never offered to
// BestMatch. Its name is New's.
func NewExact(def *logical.Node, table *storage.Table, seq int) *View {
	sig := def.Signature()
	return &View{
		Name:        NameForSig(sig),
		Sig:         sig,
		ID:          def.ID(),
		Def:         def,
		Table:       table,
		CreatedSeq:  seq,
		LastUsedSeq: seq,
		Checksum:    storage.ChecksumTable(table),
	}
}

// Extend returns the view over its table followed by delta's rows — the
// rows its definition yields over lines appended to its base log — with
// the checksum extended over those rows alone and every other field kept.
// The view and its table are left as they are.
func (v *View) Extend(delta *storage.Table) *View {
	nv := *v
	nv.Table = v.Table.Concat(delta)
	nv.Checksum = storage.ExtendChecksum(v.Checksum, delta.Rows)
	return &nv
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

// MatchNode reports whether v can answer node n and how. It reads the node's
// id and structure and the view, writing neither, so it is safe to call
// concurrently on a shared plan.
func MatchNode(n *logical.Node, v *View) (*Match, bool) {
	return (&lookup{node: n, id: n.ID()}).match(v)
}

// MatchesSome reports whether v can answer n or some node below it.
func MatchesSome(n *logical.Node, v *View) bool {
	_, ok := MatchNode(n, v)
	return ok || slices.ContainsFunc(n.Children, func(c *logical.Node) bool { return MatchesSome(c, v) })
}

// lookup is one node being matched against views. The node is described
// at most once, by the first view that gets past the exact tier, and every
// later view matches against that descriptor.
type lookup struct {
	node *logical.Node
	id   uint64
	desc *logical.Descriptor
}

func (l *lookup) match(v *View) (*Match, bool) {
	if l.id != 0 && l.id == v.ID {
		return &Match{View: v, Exact: true}, true
	}
	if l.desc == nil {
		l.desc = logical.Describe(l.node)
	}
	return MatchDescriptor(l.desc, v)
}

// MatchDescriptor matches a precomputed node descriptor against a view's
// subsumption descriptor. Callers that probe many views against the same
// node (the tuner's what-if loop) describe the node once and reuse the
// descriptor, instead of re-walking the plan per view. Exact signature
// matches are the caller's to handle: this is subsumption only.
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

// MatchMemo caches MatchNode outcomes keyed by (node id, view name). A
// node's id, like its signature, fully determines its descriptor, and a
// view's name its definition (a struct Touch or rot installs in its place
// differs only in what matching never reads), so the match outcome is a
// pure function of the key — the memo only avoids re-describing and
// re-checking, never changes a result. Within one BestMatch the node is
// described once anyway; what the memo saves is describing and checking the
// same (subtree, view) pair again across lookups, which is what the tuner's
// what-if probes do: every hypothetical design of the tuner shares one
// memo. Safe for concurrent use (sync.Map).
type MatchMemo struct {
	m sync.Map // matchMemoKey -> *Match (nil = no match)
}

type matchMemoKey struct {
	id   uint64
	view string
}

// NewMatchMemo returns an empty match memo.
func NewMatchMemo() *MatchMemo { return &MatchMemo{} }

func (mm *MatchMemo) match(l *lookup, v *View) (*Match, bool) {
	key := matchMemoKey{id: l.id, view: v.Name}
	if e, ok := mm.m.Load(key); ok {
		m := e.(*Match)
		return m, m != nil
	}
	m, ok := l.match(v)
	if !ok {
		m = nil
	}
	mm.m.Store(key, m)
	return m, ok
}

// Set is a named collection of views (one store's design), and the only
// thing that changes one: every write — Add, Remove, RemoveIf, Touch, Reset,
// ReplaceAll — installs a new slice, and Touch a new View struct, under the
// set's lock. So concurrent observers (serving-layer metrics, soak probes)
// can read the set and the views in it while the owning store writes it;
// compound read-modify-write sequences are still serialized by the
// multistore system's mutex (see DESIGN.md "Concurrency model").
type Set struct {
	mu sync.RWMutex
	// views holds the members in name order. Writers replace the slice
	// under mu and never write into it or into a view it holds, so a reader
	// may keep it after unlocking and clones may share it.
	views   []*View
	version atomic.Uint64 // written under mu; see Version

	// memo, when installed with UseMemo, caches match outcomes across
	// BestMatch calls (and across sets sharing the memo).
	memo *MatchMemo
}

// NewSet returns an empty set.
func NewSet() *Set { return &Set{} }

// find returns where name is, or would be inserted, in views.
func find(views []*View, name string) (int, bool) {
	return slices.BinarySearchFunc(views, name, func(v *View, name string) int {
		return strings.Compare(v.Name, name)
	})
}

// Add inserts or replaces a view.
func (s *Set) Add(v *View) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := find(s.views, v.Name)
	next := append(make([]*View, 0, len(s.views)+1), s.views...)
	if ok {
		next[i] = v
	} else {
		next = slices.Insert(next, i, v)
	}
	s.views = next
	s.version.Add(1)
}

// Remove deletes a view by name.
func (s *Set) Remove(name string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i, ok := find(s.views, name); ok {
		s.views = slices.Delete(slices.Clone(s.views), i, i+1)
		s.version.Add(1)
	}
}

// RemoveIf deletes every view drop reports true for, in one write, and
// returns how many it deleted; when it deletes none it copies nothing.
// drop must not call back into the set.
func (s *Set) RemoveIf(drop func(*View) bool) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	i := slices.IndexFunc(s.views, drop)
	if i < 0 {
		return 0
	}
	next := slices.Clone(s.views[:i])
	for _, v := range s.views[i+1:] {
		if !drop(v) {
			next = append(next, v)
		}
	}
	n := len(s.views) - len(next)
	s.views = next
	s.version.Add(1)
	return n
}

// Touch records that the named view served query seq: it installs a copy of
// the view stamped LastUsedSeq = seq, leaving the old struct to whoever holds
// it. It reports whether the set holds the name, and writes nothing when the
// name is absent or the view already carries seq.
func (s *Set) Touch(name string, seq int) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, ok := find(s.views, name)
	if !ok || s.views[i].LastUsedSeq == seq {
		return ok
	}
	v := *s.views[i]
	v.LastUsedSeq = seq
	next := slices.Clone(s.views)
	next[i] = &v
	s.views = next
	return true
}

// Get fetches a view by name.
func (s *Set) Get(name string) (*View, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if i, ok := find(s.views, name); ok {
		return s.views[i], true
	}
	return nil, false
}

// Has reports whether the named view is present.
func (s *Set) Has(name string) bool {
	_, ok := s.Get(name)
	return ok
}

// ByID returns the view whose defining subtree has structural id id — the
// exact tier alone, by a scan of the members. The zero id never matches.
func (s *Set) ByID(id uint64) (*View, bool) {
	for _, v := range s.Members() {
		if id != 0 && v.ID == id {
			return v, true
		}
	}
	return nil, false
}

// Version moves on every write but Touch, which restamps recency only: Add,
// a Remove or RemoveIf that deletes, Reset and ReplaceAll. What a lookup
// against the set answers holds while its version stands still.
func (s *Set) Version() uint64 { return s.version.Load() }

// Len returns the number of views.
func (s *Set) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.views)
}

// TotalBytes sums the logical sizes of all views.
func (s *Set) TotalBytes() int64 {
	var n int64
	for _, v := range s.Members() {
		n += v.SizeBytes()
	}
	return n
}

// All returns the views sorted by name, in a slice the caller owns.
func (s *Set) All() []*View {
	views := s.Members()
	return append(make([]*View, 0, len(views)), views...)
}

// Members returns the current name-ordered slice without copying it. No
// writer touches a slice once the set has installed it, so the caller may
// keep it, and must not write into it.
func (s *Set) Members() []*View {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.views
}

// MembersAt returns Members and the Version they stand at, read together.
func (s *Set) MembersAt() ([]*View, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.views, s.version.Load()
}

// Clone returns a shallow copy of the set (views shared) that stands at the
// set's version: a snapshot whose Members and Version are one pair.
func (s *Set) Clone() *Set {
	members, v := s.MembersAt()
	c := &Set{views: members}
	c.version.Store(v)
	return c
}

// Reset empties the set in place. Unlike reassigning a store's Views field
// to a fresh Set, this keeps the Set pointer stable, so concurrent readers
// holding the store never observe a torn pointer swap.
func (s *Set) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.views = nil
	s.version.Add(1)
}

// ReplaceAll swaps the set's contents for src's (views shared, src left
// unchanged). Like Reset, it mutates in place so the Set pointer held by
// concurrent readers stays valid across a design swap. ReplaceAll(s) is a
// no-op.
func (s *Set) ReplaceAll(src *Set) {
	if s == src {
		return
	}
	var next []*View
	if src != nil {
		next = src.Members()
	}
	s.mu.Lock()
	s.views = next
	s.version.Add(1)
	s.mu.Unlock()
}

// UseMemo installs a shared match memo consulted by BestMatch. Install at
// construction time, before the set is visible to other goroutines; the
// tuner's what-if designs share one memo.
func (s *Set) UseMemo(mm *MatchMemo) { s.memo = mm }

// BestMatch finds the highest-value view in the set that answers n,
// preferring exact matches, then the smallest view (cheapest to read),
// then the least name. The node is described at most once per call.
func (s *Set) BestMatch(n *logical.Node) (*Match, bool) {
	l := lookup{node: n, id: n.ID()}
	var best *Match
	for _, v := range s.Members() {
		if m, ok := s.match(&l, v); ok && (best == nil || better(m, best)) {
			best = m
		}
	}
	return best, best != nil
}

func (s *Set) match(l *lookup, v *View) (*Match, bool) {
	if s.memo != nil {
		return s.memo.match(l, v)
	}
	return l.match(v)
}

func better(a, b *Match) bool {
	if a.Exact != b.Exact {
		return a.Exact
	}
	return a.View.SizeBytes() < b.View.SizeBytes()
}
