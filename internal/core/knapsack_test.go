package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"miso/internal/views"
)

func item(size, move int64, bn float64) *Item {
	return &Item{
		Views:    []*views.View{{Name: "v"}},
		Size:     size,
		MoveToDW: move,
		BnDW:     bn,
	}
}

func dwDims(it *Item) (int64, float64) { return it.MoveToDW, it.BnDW }

func totalBenefit(chosen []*Item) float64 {
	var b float64
	for _, it := range chosen {
		b += it.BnDW
	}
	return b
}

// bruteForce finds the optimal 0-1 packing by enumeration.
func bruteForce(items []*Item, storageCap, xferCap int64) float64 {
	best := 0.0
	n := len(items)
	for mask := 0; mask < 1<<n; mask++ {
		var size, move int64
		var bn float64
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				size += items[i].Size
				move += items[i].MoveToDW
				bn += items[i].BnDW
			}
		}
		if size <= storageCap && move <= xferCap && bn > best {
			best = bn
		}
	}
	return best
}

// mb is the floor of the automatic discretization unit: budgets of at most
// 512 MB of storage and 64 MB of transfer are packed in whole megabytes.
const mb = int64(1) << 20

func TestKnapsackMatchesBruteForceExactUnits(t *testing.T) {
	// With every weight and budget a whole number of the 1 MB unit the DP
	// must be exactly optimal.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(8)
		items := make([]*Item, n)
		for i := range items {
			size := int64(1+rng.Intn(10)) * mb
			move := size
			if rng.Intn(3) == 0 {
				move = 0 // already resident: consumes no transfer
			}
			items[i] = item(size, move, float64(rng.Intn(100)))
		}
		storageCap := int64(5+rng.Intn(30)) * mb
		xferCap := int64(5+rng.Intn(20)) * mb
		chosen := packKnapsack(items, storageCap, xferCap, dwDims)
		got := totalBenefit(chosen)
		want := bruteForce(items, storageCap, xferCap)
		if got != want {
			t.Fatalf("trial %d: DP benefit %.0f, optimal %.0f", trial, got, want)
		}
		// The chosen set itself must respect both capacities.
		var size, move int64
		for _, it := range chosen {
			size += it.Size
			move += it.MoveToDW
		}
		if size > storageCap || move > xferCap {
			t.Fatalf("trial %d: chosen set violates capacities", trial)
		}
	}
}

func TestKnapsackSkipsUselessAndOversized(t *testing.T) {
	items := []*Item{
		item(5*mb, 5*mb, 0),    // no benefit
		item(100*mb, 0, 50),    // exceeds storage
		item(5*mb, 100*mb, 50), // exceeds transfer
		item(5*mb, 5*mb, 10),   // fits
	}
	chosen := packKnapsack(items, 10*mb, 10*mb, dwDims)
	if len(chosen) != 1 || chosen[0] != items[3] {
		t.Fatalf("chosen = %v", chosen)
	}
}

func TestKnapsackZeroCapacity(t *testing.T) {
	items := []*Item{item(mb, mb, 10)}
	if got := packKnapsack(items, 0, 10*mb, dwDims); len(got) != 0 {
		t.Error("packed into zero storage")
	}
	if got := packKnapsack(items, 10*mb, 0, dwDims); len(got) != 0 {
		t.Error("packed a mover into zero transfer budget")
	}
	// Zero transfer budget still admits already-resident items.
	resident := item(mb, 0, 10)
	if got := packKnapsack([]*Item{resident}, 10*mb, 0, dwDims); len(got) != 1 {
		t.Error("resident item rejected under zero transfer budget")
	}
}

func TestKnapsackAutoDiscretization(t *testing.T) {
	// Above the 1 MB floor the units are budget-relative; large-byte items
	// still pack correctly.
	gb := int64(1) << 30
	items := []*Item{
		item(5*gb, 5*gb, 100),
		item(7*gb, 7*gb, 120),
		item(3*gb, 3*gb, 80),
	}
	// Storage fits all; transfer fits ~11GB: best is 120+80 (the 5+7
	// pair busts the budget). Auto discretization rounds sizes up, so
	// the budget carries a little headroom.
	chosen := packKnapsack(items, 100*gb, 11*gb, dwDims)
	if got := totalBenefit(chosen); got != 200 {
		t.Errorf("benefit = %.0f, want 200", got)
	}
	// The rounding never lets a choice exceed the true budget.
	var move int64
	for _, it := range chosen {
		move += it.MoveToDW
	}
	if move > 11*gb {
		t.Errorf("chosen moves %d exceed the transfer budget", move)
	}
}

func TestCeilDivAndClampUnit(t *testing.T) {
	if ceilDiv(0, 10) != 0 || ceilDiv(1, 10) != 1 || ceilDiv(10, 10) != 1 || ceilDiv(11, 10) != 2 {
		t.Error("ceilDiv wrong")
	}
	if clampUnit(0) != 1<<20 {
		t.Error("clamp floor")
	}
	if clampUnit(1<<40) != 1<<30 {
		t.Error("clamp ceiling")
	}
	if clampUnit(5<<20) != 5<<20 {
		t.Error("clamp identity")
	}
}

func hvDims(it *Item) (int64, float64) { return it.MoveToHV, it.BnHV }

// sameChoice fails unless packKnapsack and the layered reference, which
// walks the full table at the uncapped capacities, choose the same items in
// the same order.
func sameChoice(t *testing.T, what string, items []*Item, storageCap, xferCap int64,
	dims func(*Item) (int64, float64)) int {
	t.Helper()
	got := packKnapsack(items, storageCap, xferCap, dims)
	want := packKnapsackLayered(items, storageCap, xferCap, dims)
	if len(got) != len(want) {
		t.Fatalf("%s: in-place chose %d items, layered %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: chosen item %d differs", what, i)
		}
	}
	return len(got)
}

// TestKnapsackInPlaceEqualsLayered compares the in-place DP to the layered
// reference on random instances that cover the corners the descending
// update has to get right — items of zero storage weight, of zero transfer
// weight and of both (such an item reads its own cell), units at the 1 MB
// floor and budget-relative ones, capacities smaller than any item — and the ones
// the capped table has to: a capacity beyond the candidates' total weight
// in neither dimension, in one, in both, and a dimension nobody weighs
// anything in. The chosen sets must be the same items in the same order,
// not merely as valuable.
func TestKnapsackInPlaceEqualsLayered(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	packed := 0
	slack := map[[2]bool]int{} // {storage beyond Σwa, transfer beyond Σwb}
	for trial := 0; trial < 1200; trial++ {
		// Even trials draw budgets of tens of MB, packed at (or just above)
		// the 1 MB floor; odd trials scale them so each unit is the drawn
		// number of MB.
		scaled := trial%2 == 1
		resident := trial%5 == 0 // every item already in the store: Σwb = 0
		items := make([]*Item, 1+rng.Intn(24))
		var sumSize, sumMove int64
		for i := range items {
			size := int64(rng.Intn(12)) * mb
			move := size
			switch rng.Intn(4) {
			case 0:
				move = 0
			case 1:
				move = int64(rng.Intn(12)) * mb
			}
			if resident {
				move = 0
			}
			// Few distinct benefits, so equal-value packings are common
			// and the strict comparison decides.
			items[i] = item(size, move, float64(rng.Intn(6)))
			if items[i].BnDW > 0 {
				sumSize, sumMove = sumSize+size, sumMove+move
			}
		}
		storageCap, xferCap := int64(rng.Intn(40))*mb, int64(rng.Intn(30))*mb
		if scaled {
			storageCap, xferCap = storageCap*512, xferCap*64
		}
		// A quarter of the trials each: budgets as drawn, storage beyond
		// what every item together weighs, transfer beyond it, both.
		if trial/2%4&1 != 0 {
			storageCap += sumSize
		}
		if trial/2%4&2 != 0 {
			xferCap += sumMove
		}
		if trial%7 == 0 {
			storageCap, xferCap = 0, 0 // smaller than any weighted item
		}
		if !scaled {
			// Weights are sizes rounded up to the unit, and a sum over all
			// items with a benefit bounds the sum over those that also fit.
			da, db := clampUnit(storageCap/512), clampUnit(xferCap/64)
			var sumA, sumB int
			for _, it := range items {
				if it.BnDW > 0 {
					sumA, sumB = sumA+ceilDiv(it.Size, da), sumB+ceilDiv(it.MoveToDW, db)
				}
			}
			slack[[2]bool{int(storageCap/da) > sumA, int(xferCap/db) > sumB}]++
		}
		packed += sameChoice(t, fmt.Sprintf("trial %d", trial), items, storageCap, xferCap, dwDims)
	}
	if packed == 0 {
		t.Fatal("no trial packed anything")
	}
	for _, k := range [][2]bool{{false, false}, {true, false}, {false, true}, {true, true}} {
		if slack[k] < 20 {
			t.Fatalf("only %d trials with storage slack %v and transfer slack %v", slack[k], k[0], k[1])
		}
	}

	// The production HV phase: every candidate already sits in HV.
	items, bh, bt := knapsackHVBudget()
	if n := sameChoice(t, "HV budget", items, bh, bt, hvDims); n != len(items) {
		t.Fatalf("HV budget: chose %d of %d items that all fit", n, len(items))
	}
	// The same items under a storage budget that binds.
	sameChoice(t, "HV budget, binding", items, 100<<30, bt, hvDims)
}

// knapsackHVBudget is the HV phase at the paper's budgets (Bh 2 805 GB, Bt
// 10 GB): the storage unit clamps at 1 GB, so the full table is 2 806 x 65
// cells, while 36 views of 1-12 GB that are already in HV (MoveToHV = 0)
// weigh 234 units of storage in total and nothing in transfer.
func knapsackHVBudget() (items []*Item, bh, bt int64) {
	const gb = int64(1) << 30
	items = make([]*Item, 36)
	for i := range items {
		items[i] = &Item{
			Views: []*views.View{{Name: "v"}},
			Size:  int64(i*7%12+1) * gb,
			BnHV:  float64(50 + i*11%83),
		}
	}
	return items, 2805 * gb, 10 * gb
}

// TestKnapsackHVBudgetAllocUnder64KB pins the point of stopping the table
// at the candidates' weight: the HV phase's full 2 806 x 65 table and its
// take-bits were ~2.3 MB per call.
func TestKnapsackHVBudgetAllocUnder64KB(t *testing.T) {
	items, bh, bt := knapsackHVBudget()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	chosen := packKnapsack(items, bh, bt, hvDims)
	runtime.ReadMemStats(&after)
	if len(chosen) != len(items) {
		t.Fatalf("packed %d of %d", len(chosen), len(items))
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
		t.Fatalf("the HV-budget knapsack allocates %d bytes, want < 64 KB", got)
	}
}

// knapsack48 is the 48-item instance of the benchmark pipeline's
// knapsack/48items row: 513 x 65 cells under the automatic units.
func knapsack48() []*Item {
	gb := int64(1) << 30
	items := make([]*Item, 48)
	for i := range items {
		size := int64(i%13+1) * gb / 4
		items[i] = item(size, size, float64(100+i*7%91))
	}
	return items
}

// TestKnapsackAllocatesUnderOneMB pins the point of packing in place: one
// value table and the take-bits, not a 33 345-cell layer per candidate
// (~13 MB for this instance).
func TestKnapsackAllocatesUnderOneMB(t *testing.T) {
	gb := int64(1) << 30
	items := knapsack48()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	chosen := packKnapsack(items, 400*gb, 10*gb, dwDims)
	runtime.ReadMemStats(&after)
	if len(chosen) == 0 {
		t.Fatal("packed nothing")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a 48-item knapsack allocates %d bytes, want < 1 MB", got)
	}
}
