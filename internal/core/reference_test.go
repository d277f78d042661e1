package core

import (
	"math"
	"testing"

	"miso/internal/history"
	"miso/internal/logical"
	"miso/internal/optimizer"
	"miso/internal/views"
)

// referenceBenefits recomputes the predicted benefits and the degrees of
// interaction the way Tune did before it read them from a probe table: the
// benefit loop and the doi loop each walk the window, entry by entry, and
// ask Optimizer.Cost, which builds a fresh plan space per question, for
// every term where it is used. It shares no table, slot arithmetic, plan
// space, match memo or worker pool with the path under test.
func referenceBenefits(opt *optimizer.Optimizer, universe []*views.View, w *history.Window) (bnDW, bnHV map[string]float64, doi map[[2]string]float64) {
	cost := func(plan *logical.Node, hv, dw []*views.View) float64 {
		d := optimizer.EmptyDesign()
		for _, v := range hv {
			d.HV.Add(v)
		}
		for _, v := range dw {
			d.DW.Add(v)
		}
		return opt.Cost(plan, d)
	}
	entries, weights := w.Entries(), w.Weights()
	relevant := make([][]*views.View, len(entries))
	for i, e := range entries {
		relevant[i] = relevantViews(e.Plan, universe)
	}
	bnDW = map[string]float64{}
	bnHV = map[string]float64{}
	for i, rel := range relevant {
		if len(rel) == 0 {
			continue
		}
		plan := entries[i].Plan
		base := cost(plan, nil, nil)
		for _, v := range rel {
			bnDW[v.Name] += weights[i] * max0(base-cost(plan, nil, []*views.View{v}))
			bnHV[v.Name] += weights[i] * max0(base-cost(plan, []*views.View{v}, nil))
		}
	}
	doi = map[[2]string]float64{}
	for i, rel := range relevant {
		if len(rel) < 2 {
			continue
		}
		plan := entries[i].Plan
		base := cost(plan, nil, nil)
		for a := 0; a < len(rel); a++ {
			for b := a + 1; b < len(rel); b++ {
				va, vb := rel[a], rel[b]
				bA := max0(base - cost(plan, nil, []*views.View{va}))
				bB := max0(base - cost(plan, nil, []*views.View{vb}))
				bAB := max0(base - cost(plan, nil, []*views.View{va, vb}))
				doi[pairKey(va.Name, vb.Name)] += weights[i] * (bAB - bA - bB)
			}
		}
	}
	return bnDW, bnHV, doi
}

// sameBits reports whether two maps hold the same keys with bit-identical
// values.
func sameBits[K comparable](got, want map[K]float64) bool {
	if len(got) != len(want) {
		return false
	}
	for k, w := range want {
		if g, ok := got[k]; !ok || math.Float64bits(g) != math.Float64bits(w) {
			return false
		}
	}
	return true
}

// BenchTunerSetup and CheckProbeTable are exported to the external test
// package, which (unlike this one) may import multistore and so can hold
// the probe table against the reference on a live system's reorganizations.
var BenchTunerSetup = benchTunerSetup

// CheckProbeTable fails t unless the benefits and interactions read from
// the probe table of (d, w) equal referenceBenefits' bit for bit — and stop
// doing so once two neighbouring slots of the table trade places, so a
// reader that walks the slots in another order than they were listed
// cannot pass.
func CheckProbeTable(t testing.TB, opt *optimizer.Optimizer, d optimizer.Design, w *history.Window) {
	t.Helper()
	universe, _ := candidates(d)
	relevant, first, costs, err := NewTuner(Config{}, opt).probeTable(w.Entries(), universe)
	if err != nil {
		t.Fatal(err)
	}
	wantDW, wantHV, wantDoi := referenceBenefits(opt, universe, w)
	matches := func() bool {
		bnDW, bnHV, doi := readTable(relevant, first, w.Weights(), costs)
		return sameBits(bnDW, wantDW) && sameBits(bnHV, wantHV) && sameBits(doi, wantDoi)
	}
	if !matches() {
		t.Fatalf("probe table of %d slots over %d views diverged from the reference loops", len(costs), len(universe))
	}
	for i := 0; i+1 < len(costs); i++ {
		if costs[i] != costs[i+1] {
			costs[i], costs[i+1] = costs[i+1], costs[i]
			if matches() {
				t.Fatalf("slots %d and %d swapped, yet the table still matches the reference", i, i+1)
			}
			return
		}
	}
	t.Fatalf("all %d slots hold one cost; the window exercises nothing", len(costs))
}

// Reference knapsack: the layered dynamic program packKnapsack ran before it
// packed in place — one freshly allocated value table per candidate, the
// chosen set read back by comparing adjacent layers — moved here unchanged (but
// for the explicit-unit parameter, dropped from both) when the production build kept only the in-place form. It is the oracle
// TestKnapsackInPlaceEqualsLayered compares chosen sets against.

func packKnapsackLayered(items []*Item, storageCap, xferCap int64,
	dims func(*Item) (int64, float64)) []*Item {

	// Discretization: each dimension picks a budget-relative unit, so small
	// budgets keep enough resolution and huge budgets keep the DP table
	// small.
	da := clampUnit(storageCap / 512)
	db := clampUnit(xferCap / 64)
	ca := int(storageCap / da)
	cb := int(xferCap / db)
	if ca < 0 {
		ca = 0
	}
	if cb < 0 {
		cb = 0
	}
	width := cb + 1
	cells := (ca + 1) * width

	type weighted struct {
		item   *Item
		wa, wb int
		bn     float64
	}
	var cands []weighted
	for _, it := range items {
		move, bn := dims(it)
		if bn <= 0 {
			continue
		}
		w := weighted{item: it, wa: ceilDiv(it.Size, da), wb: ceilDiv(move, db), bn: bn}
		if w.wa > ca || w.wb > cb {
			continue
		}
		cands = append(cands, w)
	}
	if len(cands) == 0 {
		return nil
	}

	// Layered DP so the chosen set can be reconstructed exactly.
	layers := make([][]float64, len(cands)+1)
	layers[0] = make([]float64, cells)
	for i, w := range cands {
		prev := layers[i]
		cur := make([]float64, cells)
		copy(cur, prev)
		for a := w.wa; a <= ca; a++ {
			rowPrev := (a - w.wa) * width
			row := a * width
			for b := w.wb; b <= cb; b++ {
				if v := prev[rowPrev+b-w.wb] + w.bn; v > cur[row+b] {
					cur[row+b] = v
				}
			}
		}
		layers[i+1] = cur
	}

	// Reconstruct from the full-capacity cell.
	var chosen []*Item
	a, b := ca, cb
	for i := len(cands); i > 0; i-- {
		w := cands[i-1]
		if layers[i][a*width+b] != layers[i-1][a*width+b] {
			chosen = append(chosen, w.item)
			a -= w.wa
			b -= w.wb
		}
	}
	return chosen
}
