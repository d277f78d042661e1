// Package logical defines the logical query plan: a DAG of relational
// operators built from the parsed HiveQL AST. Plans carry canonical
// signatures used to name opportunistic materialized views, 64-bit
// structural ids that stand for the signatures wherever a subtree is looked
// up, and descriptors that support subsumption-based view matching. The
// package is store-agnostic; the hv and dw engines execute (sub)plans, and
// the multistore optimizer chooses where each part runs.
package logical

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"miso/internal/expr"
	"miso/internal/storage"
)

// Kind enumerates logical operator kinds.
type Kind int

// Operator kinds.
const (
	KindScan Kind = iota
	KindExtract
	KindFilter
	KindProject
	KindJoin
	KindAggregate
	KindDistinct
	KindSort
	KindLimit
	KindViewScan
)

// String returns the lower-case operator name.
func (k Kind) String() string {
	switch k {
	case KindScan:
		return "scan"
	case KindExtract:
		return "extract"
	case KindFilter:
		return "filter"
	case KindProject:
		return "project"
	case KindJoin:
		return "join"
	case KindAggregate:
		return "aggregate"
	case KindDistinct:
		return "distinct"
	case KindSort:
		return "sort"
	case KindLimit:
		return "limit"
	case KindViewScan:
		return "viewscan"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// JoinType distinguishes inner from left outer joins.
type JoinType int

// Join types.
const (
	JoinInner JoinType = iota
	JoinLeft
)

func (t JoinType) String() string {
	if t == JoinLeft {
		return "left"
	}
	return "inner"
}

// ExtractField maps one raw log field — or a UDF computed over this log's
// fields — to an output column. UDF fields model Hive's map-phase UDF
// application: the SerDe extracts the raw fields and the user code runs in
// the same pass. A view materialized from such an extract carries the UDF
// results as plain data, which is how DW can answer UDF-derived predicates
// without ever executing user code.
type ExtractField struct {
	LogField string
	OutName  string
	Type     storage.Kind
	// UDF, when non-nil, is the computed expression (over this extract's
	// plain fields) instead of a raw log field.
	UDF expr.Expr
}

// Proj is one computed output column.
type Proj struct {
	Expr expr.Expr
	Name string
}

// AggSpec is one aggregate computation.
type AggSpec struct {
	Func     string // COUNT, SUM, AVG, MIN, MAX
	Arg      expr.Expr
	Star     bool
	Distinct bool
	Name     string
}

// Canon returns the canonical form of the aggregate. The encoding matches
// what the builder produces for aggregate calls in scalar position
// (FUNC[_STAR][_DISTINCT](args)) so substitution by canonical identity works.
func (a AggSpec) Canon() string {
	name := a.Func
	if a.Star {
		name += "_STAR"
	}
	if a.Distinct {
		name += "_DISTINCT"
	}
	if a.Star {
		return name + "()"
	}
	return name + "(" + a.Arg.Canon() + ")"
}

// SortKey is one ORDER BY key over the child's output columns.
type SortKey struct {
	Expr expr.Expr
	Desc bool
}

// Node is one logical operator. Exactly the fields for its Kind are set.
type Node struct {
	Kind     Kind
	Children []*Node

	LogName string         // Scan
	Fields  []ExtractField // Extract

	Pred expr.Expr // Filter

	Projs []Proj // Project

	JoinType  JoinType // Join
	LeftKeys  []string
	RightKeys []string

	GroupBy []Proj    // Aggregate: grouping expressions with output names
	Aggs    []AggSpec // Aggregate: aggregate outputs

	SortKeys []SortKey // Sort
	LimitN   int       // Limit

	ViewName   string // ViewScan: name of the materialized view
	ViewSchema *storage.Schema

	schema *storage.Schema // computed output schema
	// head and tail are the node-local payload (see payload), local its
	// hash and id the node's structural id, udfHere and udf what
	// UsesUDFHere and UsesUDF report, and sig and desc the cells Signature
	// and Describe memoize into; all are set when the node is built and
	// never written afterwards (the cells' contents are published
	// atomically).
	head, tail   string
	local, id    uint64
	udfHere, udf bool
	sig          *atomic.Pointer[string]
	desc         *atomic.Pointer[Descriptor]
}

// Child returns the i-th child.
func (n *Node) Child(i int) *Node { return n.Children[i] }

// Schema returns the node's output schema (computed by the builder).
func (n *Node) Schema() *storage.Schema { return n.schema }

// NewNode builds a node from a literal (or a copy of a node with fields
// changed) whose children are built: it installs the output schema and
// computes the payload and id. Plans assembled outside this package go
// through it, so no node of theirs reports the zero id.
func NewNode(n Node, sch *storage.Schema) *Node { return alloc(n).built(sch) }

// builtNode is a node and its signature and descriptor cells, allocated
// together: every built node owns both, and they cost no allocation of
// their own.
type builtNode struct {
	node Node
	sig  atomic.Pointer[string]
	desc atomic.Pointer[Descriptor]
}

// alloc returns a heap copy of n holding fresh, empty cells.
func alloc(n Node) *Node {
	b := &builtNode{node: n}
	b.node.sig, b.node.desc = &b.sig, &b.desc
	return &b.node
}

// built installs the schema, payload, UDF flag and id: the last write a
// node gets.
func (n *Node) built(sch *storage.Schema) *Node {
	n.schema = sch
	n.head, n.tail = n.payload()
	n.local = hashString(hashString(hashUint(fnvOffset64, uint64(n.Kind)), n.head), n.tail)
	n.udfHere = n.walkUDFHere()
	return n.link()
}

// link derives the id from the payload's hash and the children's ids, and
// the subtree's UDF flag from the node's and the children's.
func (n *Node) link() *Node {
	h, udf := n.local, n.udfHere
	for _, c := range n.Children {
		h = hashUint(h, c.id)
		udf = udf || c.UsesUDF()
	}
	if h == 0 {
		h = fnvPrime64 // the zero id means "not built"
	}
	n.id, n.udf = h, udf
	return n
}

// WithChildren returns a copy of the node over children, which it takes as
// its own: the rewrite primitive. The copy keeps the payload and schema, so
// its id costs one hash over the children's ids. Unchanged subtrees are
// shared between the original and rewritten plans, which is safe because a
// built node is never written again.
func (n *Node) WithChildren(children []*Node) *Node {
	c := alloc(*n)
	c.Children = children
	if n.id == 0 {
		return c.built(n.schema) // a literal's copy is built in full
	}
	return c.link()
}

// IDOver returns the id WithChildren would give a copy of the built node
// over children with the given ids, without building the copy: a cost walk
// over a plan whose subtrees stand replaced looks up its nodes' stats by the
// ids the replaced plan would carry.
func (n *Node) IDOver(kids []uint64) uint64 {
	h := n.local
	for _, id := range kids {
		h = hashUint(h, id)
	}
	if h == 0 {
		h = fnvPrime64
	}
	return h
}

// ID returns the node's structural id: a hash of its kind, its node-local
// payload and its children's ids, so two built nodes have equal ids exactly
// when their signatures are equal (up to a 64-bit collision). It is set at
// build and reading it writes nothing; only a Node literal that never went
// through NewNode reports zero.
func (n *Node) ID() uint64 { return n.id }

// FNV-64a over the payload's bytes, then one multiply-xorshift round per
// word; deterministic, so a collision would reproduce.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

func hashString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return (h ^ 0xff) * fnvPrime64 // terminator so "ab","c" != "a","bc"
}

func hashUint(h, u uint64) uint64 {
	h = (h ^ u) * 0x9E3779B97F4A7C15
	return h ^ h>>32
}

// Walk visits the node and all descendants pre-order.
func (n *Node) Walk(fn func(*Node)) {
	fn(n)
	for _, c := range n.Children {
		c.Walk(fn)
	}
}

// Nodes returns all nodes in the subtree, pre-order.
func (n *Node) Nodes() []*Node {
	var out []*Node
	n.Walk(func(m *Node) { out = append(out, m) })
	return out
}

// UsesUDFHere reports whether this node's own expressions call a UDF. A
// built node answers from the flag set at build; a node literal walks its
// expressions.
func (n *Node) UsesUDFHere() bool {
	if n.id != 0 {
		return n.udfHere
	}
	return n.walkUDFHere()
}

func (n *Node) walkUDFHere() bool {
	check := func(e expr.Expr) bool { return e != nil && expr.UsesUDF(e) }
	switch n.Kind {
	case KindExtract:
		for _, f := range n.Fields {
			if f.UDF != nil {
				return true
			}
		}
	case KindFilter:
		return check(n.Pred)
	case KindProject:
		for _, p := range n.Projs {
			if check(p.Expr) {
				return true
			}
		}
	case KindAggregate:
		for _, g := range n.GroupBy {
			if check(g.Expr) {
				return true
			}
		}
		for _, a := range n.Aggs {
			if !a.Star && check(a.Arg) {
				return true
			}
		}
	case KindSort:
		for _, k := range n.SortKeys {
			if check(k.Expr) {
				return true
			}
		}
	}
	return false
}

// UsesUDF reports whether any node in the subtree calls a UDF. Such
// subtrees are pinned to HV by the multistore optimizer. A built node
// answers from the flag set at build; a node literal walks the subtree.
func (n *Node) UsesUDF() bool {
	if n.id != 0 {
		return n.udf
	}
	return n.walkUDFHere() || slices.ContainsFunc(n.Children, (*Node).UsesUDF)
}

// Signature returns the canonical structural signature of the subtree.
// Conjuncts of filters are sorted so AND order does not matter; extract
// fields are sorted by the builder. Two subtrees with equal signatures
// compute the same relation with the same column set. The text is what
// names views and stage tables and orders HV stages; lookups key on ID.
//
// A built node computes it once and memoizes it in its cell; goroutines
// that race on the first call each compute the same text and publish it
// atomically, so a shared plan needs no prewarm. A node literal that never
// went through NewNode has no cell and recomputes.
func (n *Node) Signature() string {
	if n.sig != nil {
		if s := n.sig.Load(); s != nil {
			return *s
		}
	}
	name := n.Kind.String()
	if n.Kind == KindAggregate {
		name = "agg"
	}
	var buf [4]string
	parts := buf[:0]
	if n.head != "" {
		parts = append(parts, n.head)
	}
	for _, c := range n.Children {
		parts = append(parts, c.Signature())
	}
	if n.tail != "" {
		parts = append(parts, n.tail)
	}
	s := name + "(" + strings.Join(parts, ",") + ")"
	if n.sig != nil {
		n.sig.Store(&s)
	}
	return s
}

// payload encodes the node-local part of the signature in canonical text:
// what Signature prints before (head) and after (tail) the children's
// signatures — conjuncts and join keys sorted, so AND order and key order do
// not matter. ID hashes the same two strings, so the id and the signature
// cannot disagree about which nodes are the same.
func (n *Node) payload() (head, tail string) {
	list := func(parts []string, sep string) string { return "[" + strings.Join(parts, sep) + "]" }
	switch n.Kind {
	case KindScan:
		return n.LogName, ""
	case KindViewScan:
		return n.ViewName, ""
	case KindExtract:
		fields := make([]string, len(n.Fields))
		for i, f := range n.Fields {
			if f.UDF != nil {
				fields[i] = "udf:" + f.UDF.Canon() + ">" + f.OutName
			} else {
				fields[i] = f.LogField + ">" + f.OutName
			}
		}
		return "", list(fields, ",")
	case KindFilter:
		cs := expr.Conjuncts(n.Pred)
		canon := make([]string, len(cs))
		for i, c := range cs {
			canon[i] = c.Canon()
		}
		sort.Strings(canon)
		return "", list(canon, "&")
	case KindProject:
		ps := make([]string, len(n.Projs))
		for i, p := range n.Projs {
			ps[i] = p.Expr.Canon() + ">" + p.Name
		}
		return "", list(ps, ",")
	case KindJoin:
		keys := make([]string, len(n.LeftKeys))
		for i := range n.LeftKeys {
			keys[i] = n.LeftKeys[i] + "=" + n.RightKeys[i]
		}
		sort.Strings(keys)
		return n.JoinType.String(), list(keys, ",")
	case KindAggregate:
		gs := make([]string, len(n.GroupBy))
		for i, g := range n.GroupBy {
			gs[i] = g.Expr.Canon() + ">" + g.Name
		}
		as := make([]string, len(n.Aggs))
		for i, a := range n.Aggs {
			as[i] = a.Canon() + ">" + a.Name
		}
		return "", "gb=" + list(gs, ",") + ",aggs=" + list(as, ",")
	case KindSort:
		ks := make([]string, len(n.SortKeys))
		for i, k := range n.SortKeys {
			dir := "asc"
			if k.Desc {
				dir = "desc"
			}
			ks[i] = k.Expr.Canon() + ":" + dir
		}
		return "", list(ks, ",")
	case KindLimit:
		return "", strconv.Itoa(n.LimitN)
	}
	return "", ""
}

// String renders an indented operator tree for debugging.
func (n *Node) String() string {
	var b strings.Builder
	n.render(&b, 0)
	return b.String()
}

func (n *Node) render(b *strings.Builder, depth int) {
	b.WriteString(strings.Repeat("  ", depth))
	switch n.Kind {
	case KindScan:
		fmt.Fprintf(b, "Scan %s", n.LogName)
	case KindExtract:
		names := make([]string, len(n.Fields))
		for i, f := range n.Fields {
			names[i] = f.OutName
		}
		fmt.Fprintf(b, "Extract [%s]", strings.Join(names, ", "))
	case KindFilter:
		fmt.Fprintf(b, "Filter %s", n.Pred.Canon())
	case KindProject:
		names := make([]string, len(n.Projs))
		for i, p := range n.Projs {
			names[i] = p.Name
		}
		fmt.Fprintf(b, "Project [%s]", strings.Join(names, ", "))
	case KindJoin:
		keys := make([]string, len(n.LeftKeys))
		for i := range n.LeftKeys {
			keys[i] = n.LeftKeys[i] + "=" + n.RightKeys[i]
		}
		fmt.Fprintf(b, "Join(%s) on %s", n.JoinType, strings.Join(keys, " AND "))
	case KindAggregate:
		fmt.Fprintf(b, "Aggregate groups=%d aggs=%d", len(n.GroupBy), len(n.Aggs))
	case KindDistinct:
		b.WriteString("Distinct")
	case KindSort:
		fmt.Fprintf(b, "Sort keys=%d", len(n.SortKeys))
	case KindLimit:
		fmt.Fprintf(b, "Limit %d", n.LimitN)
	case KindViewScan:
		fmt.Fprintf(b, "ViewScan %s", n.ViewName)
	}
	b.WriteByte('\n')
	for _, c := range n.Children {
		c.render(b, depth+1)
	}
}
