package views

// Reference matcher: the linear scan Set.BestMatch ran before the set grew
// its indexes, moved here unchanged when the production build kept only the
// indexed lookup. It walks every view in name order, matches each against
// the node on its own (describing the node again per view), and keeps the
// first best one — no name lookup, no skeleton index, so a divergence
// points at the index. views_test reaches it through export_test.go.

import "miso/internal/logical"

// matchNode reports whether v can answer node n and how.
func matchNode(n *logical.Node, v *View) (*Match, bool) {
	if n.Signature() == v.Sig {
		return &Match{View: v, Exact: true}, true
	}
	if v.ExactOnly {
		return nil, false
	}
	return MatchDescriptor(logical.Describe(n), v)
}

// bestMatchReference finds the highest-value view in the set that answers
// n, preferring exact matches, then the smallest view; All's name order
// and the strict comparison give ties to the least name.
func bestMatchReference(s *Set, n *logical.Node) (*Match, bool) {
	var best *Match
	for _, v := range s.All() {
		m, ok := matchNode(n, v)
		if !ok {
			continue
		}
		if best == nil || better(m, best) {
			best = m
		}
	}
	return best, best != nil
}

func better(a, b *Match) bool {
	if a.Exact != b.Exact {
		return a.Exact
	}
	return a.View.SizeBytes() < b.View.SizeBytes()
}
