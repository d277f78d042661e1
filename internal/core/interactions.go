package core

import (
	"sort"

	"miso/internal/views"
)

// part is one interacting set of views.
type part struct {
	members []*views.View
}

// computeInteractingSets produces a stable partition of the view universe:
// views within a part interact strongly; views in different parts do not.
// An interaction is "strong" when its magnitude is a significant fraction
// (doiThresholdFrac) of the weaker view's own predicted benefit — i.e. the
// presence of one view substantially changes what the other is worth.
// Parts are bounded by maxPartSize: once a part is full, weaker edges that
// would grow it further are ignored, which keeps only the strongest
// interactions — the same effect as the paper's threshold choice.
func (t *Tuner) computeInteractingSets(universe []*views.View, doi map[[2]string]float64, bn map[string]float64) []*part {
	threshold := func(a, b string) float64 {
		lo := bn[a]
		if bn[b] < lo {
			lo = bn[b]
		}
		return lo * doiThresholdFrac
	}

	// Union-find seeded with singletons.
	parent := map[string]string{}
	size := map[string]int{}
	var find func(string) string
	find = func(x string) string {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, v := range universe {
		parent[v.Name] = v.Name
		size[v.Name] = 1
	}

	// Strongest edges first, so part-size capping keeps the strongest
	// interactions.
	type edge struct {
		a, b string
		d    float64
	}
	var edges []edge
	for k, d := range doi {
		if abs(d) > 0 && abs(d) >= threshold(k[0], k[1]) {
			edges = append(edges, edge{k[0], k[1], d})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if abs(edges[i].d) != abs(edges[j].d) {
			return abs(edges[i].d) > abs(edges[j].d)
		}
		return edges[i].a+edges[i].b < edges[j].a+edges[j].b
	})
	for _, e := range edges {
		ra, rb := find(e.a), find(e.b)
		if ra == rb {
			continue
		}
		if size[ra]+size[rb] > maxPartSize {
			continue
		}
		parent[rb] = ra
		size[ra] += size[rb]
	}

	byRoot := map[string]*part{}
	var order []string
	for _, v := range universe {
		r := find(v.Name)
		p, ok := byRoot[r]
		if !ok {
			p = &part{}
			byRoot[r] = p
			order = append(order, r)
		}
		p.members = append(p.members, v)
	}
	sort.Strings(order)
	out := make([]*part, 0, len(order))
	for _, r := range order {
		out = append(out, byRoot[r])
	}
	return out
}

// sparsifySets turns each interacting set into independent knapsack items:
// positively interacting pairs are merged (recursively, strongest edge
// first) into single items whose benefit is the pair's combined benefit;
// among the remaining strongly negative alternatives only the best
// benefit-per-byte representative is kept.
func (t *Tuner) sparsifySets(parts []*part, doi map[[2]string]float64,
	bnDW, bnHV map[string]float64, inDW map[string]bool) []*Item {

	var items []*Item
	for _, p := range parts {
		// Start with one item per member view.
		cur := make([]*Item, 0, len(p.members))
		for _, v := range p.members {
			cur = append(cur, t.singleton(v, bnDW, bnHV, inDW))
		}
		// Merge positive pairs, strongest first, until none remain.
		for {
			bi, bj, best := -1, -1, 0.0
			for i := 0; i < len(cur); i++ {
				for j := i + 1; j < len(cur); j++ {
					d := itemDoi(cur[i], cur[j], doi)
					if d > best {
						bi, bj, best = i, j, d
					}
				}
			}
			if bi < 0 {
				break
			}
			merged := mergeItems(cur[bi], cur[bj], best)
			next := make([]*Item, 0, len(cur)-1)
			for k, it := range cur {
				if k != bi && k != bj {
					next = append(next, it)
				}
			}
			cur = append(next, merged)
		}
		// Negative interactions remain within the part: only the best
		// benefit-per-byte representative competes for placement. The
		// rest are demoted to retention-only candidates — they never
		// move, but HV keeps them while space remains, because a view
		// that is redundant under the current window costs nothing to
		// hold and may serve a later analyst revisiting the same slice.
		if len(cur) > 1 && hasNegativeEdge(cur, doi) {
			sort.Slice(cur, func(i, j int) bool {
				return perByte(cur[i]) > perByte(cur[j])
			})
			for _, it := range cur[1:] {
				it.BnDW = 0
				if it.MoveToHV == 0 {
					it.BnHV = 1e-9
				} else {
					it.BnHV = 0
				}
			}
		}
		items = append(items, cur...)
	}
	return items
}

func (t *Tuner) singleton(v *views.View, bnDW, bnHV map[string]float64, inDW map[string]bool) *Item {
	it := &Item{
		Views: []*views.View{v},
		Size:  v.SizeBytes(),
		BnDW:  bnDW[v.Name],
		BnHV:  bnHV[v.Name],
	}
	if inDW[v.Name] {
		it.MoveToHV = v.SizeBytes()
	} else {
		it.MoveToDW = v.SizeBytes()
	}
	// Net out the cost of realizing the placement: moving a view only
	// pays off when its predicted benefit exceeds the move time.
	it.BnDW -= float64(it.MoveToDW) * movePenaltyDW
	it.BnHV -= float64(it.MoveToHV) * movePenaltyHV
	if it.BnDW < 0 {
		it.BnDW = 0
	}
	if it.BnHV < 0 {
		it.BnHV = 0
	}
	// Retention: a view already sitting in HV costs nothing to keep, so
	// give it a vanishing benefit — the knapsack then retains it whenever
	// space remains after the genuinely beneficial views are packed.
	// Ad-hoc workloads revisit old slices (another analyst picking up the
	// same period), and dropping free storage would forfeit that.
	if it.MoveToHV == 0 && it.BnHV == 0 {
		it.BnHV = 1e-9
	}
	return it
}

// itemDoi sums the pairwise interactions across two items' views.
func itemDoi(a, b *Item, doi map[[2]string]float64) float64 {
	var sum float64
	for _, va := range a.Views {
		for _, vb := range b.Views {
			sum += doi[pairKey(va.Name, vb.Name)]
		}
	}
	return sum
}

func hasNegativeEdge(items []*Item, doi map[[2]string]float64) bool {
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			if itemDoi(items[i], items[j], doi) < 0 {
				return true
			}
		}
	}
	return false
}

// mergeItems combines two positively interacting items: weight is the sum
// of sizes, benefit is the combined benefit (sum plus the interaction).
func mergeItems(a, b *Item, interaction float64) *Item {
	m := &Item{
		Views:    append(append([]*views.View{}, a.Views...), b.Views...),
		Size:     a.Size + b.Size,
		MoveToDW: a.MoveToDW + b.MoveToDW,
		MoveToHV: a.MoveToHV + b.MoveToHV,
		BnDW:     a.BnDW + b.BnDW + interaction,
		BnHV:     a.BnHV + b.BnHV + interaction*0.5,
	}
	if m.BnHV < 0 {
		m.BnHV = 0
	}
	return m
}

func perByte(it *Item) float64 {
	if it.Size <= 0 {
		return it.BnDW
	}
	return it.BnDW / float64(it.Size)
}

func abs(f float64) float64 {
	if f < 0 {
		return -f
	}
	return f
}
