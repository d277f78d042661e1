package dw

import (
	"miso/internal/logical"
	"miso/internal/stats"
	"miso/internal/storage"
)

// CostBuilt is the reference CostAbove is held to: the built plan costed
// node by node (costFromSizes), each node sized by overlay (node id -> stat;
// nil for none), else by the estimator's cache (Lookup), else from its
// children's sizes (Derive).
func (s *Store) CostBuilt(plan *logical.Node, overlay map[uint64]stats.Stat) float64 {
	var size func(n *logical.Node) stats.Stat
	size = func(n *logical.Node) stats.Stat {
		if st, ok := overlay[n.ID()]; ok {
			return st
		}
		if st, ok := s.est.Lookup(n.ID()); ok {
			return st
		}
		var l, r stats.Stat
		var in *storage.Schema
		switch n.Kind {
		case logical.KindScan, logical.KindExtract, logical.KindViewScan:
		default:
			l, in = size(n.Children[0]), n.Children[0].Schema()
			if n.Kind == logical.KindJoin {
				r = size(n.Children[1])
			}
		}
		return s.est.Derive(n, l, r, in)
	}
	return s.costFromSizes(plan, func(n *logical.Node) int64 { return size(n).Bytes })
}

// Estimator returns the estimator the store costs with.
func (s *Store) Estimator() *stats.Estimator { return s.est }
