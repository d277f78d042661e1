package logical

import (
	"fmt"
	"sort"
	"strings"

	"miso/internal/expr"
)

// Descriptor summarizes what a subtree computes in a form that supports
// subsumption-based view matching for SPJ (select-project-join) shapes:
// a source skeleton (which logs are extracted and how they are joined,
// ignoring filters), the set of filter conjuncts applied, and the columns
// available. Non-SPJ subtrees (aggregates, sorts, limits) get Simple=false
// and only match views by exact signature.
type Descriptor struct {
	// Simple is true when the subtree is a chain of Extract, Filter,
	// Join, and pass-through Project operators.
	Simple bool
	// SourceSig identifies the join/extract skeleton with filters and
	// field sets stripped, so views extracting a superset of fields can
	// still serve the node. Only a Simple descriptor has one: matching
	// reads it for no other.
	SourceSig string
	// Conjuncts maps canonical form to the filter conjuncts applied
	// anywhere in the subtree.
	Conjuncts map[string]expr.Expr
	// Columns is the set of output column names. Only a view's descriptor
	// (DescribeView) carries it: matching reads it on the view alone.
	Columns map[string]bool
	// ColOrder is the output column order (matching the schema). Describe
	// sets it at the top level only; no parent reads a child's.
	ColOrder []string
	// HasUDF reports whether any expression in the subtree calls a UDF.
	HasUDF bool
}

// HasAllColumns reports whether every name in cols is available.
func (d *Descriptor) HasAllColumns(cols []string) bool {
	for _, c := range cols {
		if !d.Columns[c] {
			return false
		}
	}
	return true
}

// ConjunctsSubsetOf reports whether d's conjuncts are a subset of other's.
func (d *Descriptor) ConjunctsSubsetOf(other *Descriptor) bool {
	for c := range d.Conjuncts {
		if _, ok := other.Conjuncts[c]; !ok {
			return false
		}
	}
	return true
}

// ResidualConjuncts returns the conjuncts of d that are absent from view,
// sorted by canonical form for determinism.
func (d *Descriptor) ResidualConjuncts(view *Descriptor) []expr.Expr {
	keys := make([]string, 0, len(d.Conjuncts))
	for c := range d.Conjuncts {
		if _, ok := view.Conjuncts[c]; !ok {
			keys = append(keys, c)
		}
	}
	sort.Strings(keys)
	out := make([]expr.Expr, len(keys))
	for i, k := range keys {
		out[i] = d.Conjuncts[k]
	}
	return out
}

// Describe returns the descriptor a plan node is matched with: what the
// subtree computes, plus the node's output column order. Callers only read
// it. A built node computes it once and memoizes it in its cell, so every
// call on one node returns one pointer; goroutines racing on the first call
// each compute an equal descriptor and publish one atomically. A node
// literal that never went through NewNode has no cell and recomputes.
func Describe(n *Node) *Descriptor {
	if n.desc != nil {
		if d := n.desc.Load(); d != nil {
			return d
		}
	}
	d := describe(n)
	d.ColOrder = n.Schema().Names()
	if n.desc != nil && !n.desc.CompareAndSwap(nil, d) {
		return n.desc.Load()
	}
	return d
}

// DescribeView computes a view's descriptor from its definition: a copy of
// the node's, plus the column set a rewrite's needed columns are checked
// against. Every view's Desc is built here.
func DescribeView(def *Node) *Descriptor {
	d := *Describe(def)
	d.Columns = make(map[string]bool, len(d.ColOrder))
	for _, c := range d.ColOrder {
		d.Columns[c] = true
	}
	return &d
}

// describe builds what matching reads of a subtree below the top level:
// Simple, SourceSig, Conjuncts and HasUDF.
func describe(n *Node) *Descriptor {
	d := &Descriptor{
		Conjuncts: map[string]expr.Expr{},
		HasUDF:    n.UsesUDFHere(),
	}
	switch n.Kind {
	case KindExtract:
		d.Simple = true
		d.SourceSig = fmt.Sprintf("extract(%s)", n.Children[0].LogName)
	case KindFilter:
		cd := describe(n.Children[0])
		d.HasUDF = d.HasUDF || cd.HasUDF
		d.Simple = cd.Simple
		d.SourceSig = cd.SourceSig
		for k, v := range cd.Conjuncts {
			d.Conjuncts[k] = v
		}
		for _, c := range expr.Conjuncts(n.Pred) {
			d.Conjuncts[c.Canon()] = c
		}
	case KindJoin:
		ld := describe(n.Children[0])
		rd := describe(n.Children[1])
		d.HasUDF = d.HasUDF || ld.HasUDF || rd.HasUDF
		d.Simple = ld.Simple && rd.Simple
		if d.Simple {
			keys := make([]string, len(n.LeftKeys))
			for i := range n.LeftKeys {
				keys[i] = n.LeftKeys[i] + "=" + n.RightKeys[i]
			}
			sort.Strings(keys)
			d.SourceSig = fmt.Sprintf("join(%s,%s,%s,[%s])",
				n.JoinType, ld.SourceSig, rd.SourceSig, strings.Join(keys, ","))
		}
		for k, v := range ld.Conjuncts {
			d.Conjuncts[k] = v
		}
		for k, v := range rd.Conjuncts {
			d.Conjuncts[k] = v
		}
	case KindProject:
		cd := describe(n.Children[0])
		d.HasUDF = d.HasUDF || cd.HasUDF
		passThrough := true
		for _, p := range n.Projs {
			c, ok := p.Expr.(*expr.ColRef)
			if !ok || c.Name != p.Name {
				passThrough = false
				break
			}
		}
		if passThrough && cd.Simple {
			d.Simple = true
			d.SourceSig = cd.SourceSig
			for k, v := range cd.Conjuncts {
				d.Conjuncts[k] = v
			}
		}
	case KindViewScan:
		// A view scan is opaque: only exact matching applies.
	default:
		d.HasUDF = n.UsesUDF()
	}
	return d
}
