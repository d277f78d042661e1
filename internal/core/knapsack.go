package core

// packKnapsack solves the 0-1 multidimensional knapsack of the paper's
// M-KNAPSACK step via dynamic programming over discretized capacities. The
// two dimensions are the store's view storage budget and the reorganization
// transfer budget; dims returns an item's transfer consumption and benefit
// for the store being packed (Case 1 of the recurrence is an item with
// nonzero transfer need; Case 2 consumes storage only). Items that do not
// fit either dimension, or have no benefit, are skipped; the table then
// spans the budgets only as far as the remaining candidates can fill them,
// which at the paper's HV budget is a few hundred cells instead of 2 806 x
// 65, and chooses what the full table would.
func packKnapsack(items []*Item, storageCap, xferCap int64,
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
	type weighted struct {
		item   *Item
		wa, wb int
		bn     float64
	}
	var cands []weighted
	var sumA, sumB int
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
		sumA += w.wa
		sumB += w.wb
	}
	if len(cands) == 0 {
		return nil
	}
	// The table stops at the candidates' total weight: no subset reaches a
	// capacity beyond it, so past that point every cell of a layer repeats
	// the cell at the running weight sum, the strict > below fires for the
	// same candidates, and the walk back from the capped corner chooses the
	// same items in the same order (DESIGN.md §11).
	ca, cb = min(ca, sumA), min(cb, sumB)
	width := cb + 1
	cells := (ca + 1) * width

	// One value table updated in place, both capacities descending so a
	// cell still reads the previous candidate's layer (an item of weight
	// zero in both dimensions reads its own cell, which that layer has not
	// touched yet either), plus one take-bit per cell and candidate so the
	// chosen set can be reconstructed exactly.
	val := make([]float64, cells)
	words := (cells + 63) / 64
	took := make([]uint64, len(cands)*words)
	for i, w := range cands {
		bits := took[i*words : (i+1)*words]
		for a := ca; a >= w.wa; a-- {
			rowPrev := (a - w.wa) * width
			row := a * width
			for b := cb; b >= w.wb; b-- {
				if v := val[rowPrev+b-w.wb] + w.bn; v > val[row+b] {
					val[row+b] = v
					bits[(row+b)>>6] |= 1 << uint((row+b)&63)
				}
			}
		}
	}

	// Reconstruct from the corner cell.
	var chosen []*Item
	cell := ca*width + cb
	for i := len(cands) - 1; i >= 0; i-- {
		if took[i*words+cell>>6]&(1<<uint(cell&63)) != 0 {
			chosen = append(chosen, cands[i].item)
			cell -= cands[i].wa*width + cands[i].wb
		}
	}
	return chosen
}

func ceilDiv(n, d int64) int {
	if n <= 0 {
		return 0
	}
	return int((n + d - 1) / d)
}

// clampUnit bounds a discretization unit to [1 MB, 1 GB].
func clampUnit(u int64) int64 {
	const mb, gb = 1 << 20, 1 << 30
	if u < mb {
		return mb
	}
	if u > gb {
		return gb
	}
	return u
}
