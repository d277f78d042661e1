package logical

import (
	"miso/internal/expr"
)

// Normalize rewrites a plan into a canonical shape without changing its
// result: adjacent filters collapse into one (their conjunct sets union,
// and Signature already sorts conjuncts), and identity projections — pass-
// through columns in exactly the child's order — are dropped. Expanded view
// definitions (ViewScan leaves replaced by their base-data subtrees)
// acquire exactly the signature a raw plan for the same relation would
// have, which is what makes opportunistic views created from rewritten
// plans matchable by future raw queries.
func Normalize(n *Node) *Node { return NormalizeExpanded(n, nil) }

// NormalizeExpanded is Normalize over n with each ViewScan leaf replaced by
// def's subtree for its view, or nil if def has none for one. The subtrees
// are only read: Normalize's copy is the one copy made, so a subtree spliced
// at two leaves comes out as two disjoint copies and the result is a tree.
// A copy keeps its original's payload (a merged filter gets a new one) and
// takes its id from its new children.
func NormalizeExpanded(n *Node, def func(view string) *Node) *Node {
	if n.Kind == KindViewScan && def != nil {
		d := def(n.ViewName)
		if d == nil {
			return nil
		}
		return Normalize(d)
	}
	c := alloc(*n)
	c.Children = make([]*Node, len(n.Children))
	for i, ch := range n.Children {
		if c.Children[i] = NormalizeExpanded(ch, def); c.Children[i] == nil {
			return nil
		}
	}
	switch c.Kind {
	case KindFilter:
		child := c.Children[0]
		if child.Kind == KindFilter {
			merged := append(expr.Conjuncts(child.Pred), expr.Conjuncts(c.Pred)...)
			c.Pred = expr.AndAll(merged)
			c.Children = []*Node{child.Children[0]}
			return c.built(c.schema) // a new conjunct set is a new payload
		}
	case KindProject:
		child := c.Children[0]
		if isIdentityProjection(c.Projs, child.Schema()) {
			return child
		}
	}
	return c.link()
}

func isIdentityProjection(projs []Proj, childSchema interface {
	Len() int
	Index(string) int
}) bool {
	if len(projs) != childSchema.Len() {
		return false
	}
	for i, p := range projs {
		col, ok := p.Expr.(*expr.ColRef)
		if !ok || col.Name != p.Name || childSchema.Index(p.Name) != i {
			return false
		}
	}
	return true
}
