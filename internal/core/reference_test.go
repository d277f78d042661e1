package core

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
