package history

import (
	"testing"
)

func entry(seq int) Entry { return Entry{Seq: seq} }

func TestWindowBounds(t *testing.T) {
	w := NewWindow(3, 1, 0.5)
	for i := 0; i < 5; i++ {
		w.Add(entry(i))
	}
	if w.Len() != 3 {
		t.Fatalf("len = %d", w.Len())
	}
	es := w.Entries()
	if es[0].Seq != 2 || es[2].Seq != 4 {
		t.Errorf("kept %v, want the last three", []int{es[0].Seq, es[1].Seq, es[2].Seq})
	}
}

func TestWeightsDecayByEpoch(t *testing.T) {
	// Window of 6 with epochs of 3: the newest epoch weighs 1, the older
	// one decay.
	w := NewWindow(6, 3, 0.5)
	for i := 0; i < 6; i++ {
		w.Add(entry(i))
	}
	weights := w.Weights()
	want := []float64{0.5, 0.5, 0.5, 1, 1, 1}
	for i := range want {
		if weights[i] != want[i] {
			t.Fatalf("weights = %v, want %v", weights, want)
		}
	}
}

func TestWeightsMonotoneNondecreasing(t *testing.T) {
	w := NewWindow(9, 2, 0.7)
	for i := 0; i < 9; i++ {
		w.Add(entry(i))
	}
	weights := w.Weights()
	for i := 1; i < len(weights); i++ {
		if weights[i] < weights[i-1] {
			t.Fatalf("weights not nondecreasing toward the present: %v", weights)
		}
	}
	if weights[len(weights)-1] != 1 {
		t.Error("newest entry should have weight 1")
	}
}

func TestNoDecayWithUnitFactor(t *testing.T) {
	w := NewWindow(4, 2, 1.0)
	for i := 0; i < 4; i++ {
		w.Add(entry(i))
	}
	for _, wt := range w.Weights() {
		if wt != 1 {
			t.Fatalf("weights = %v, want all 1", w.Weights())
		}
	}
}

func TestDegenerateParamsClamped(t *testing.T) {
	w := NewWindow(0, 0, -1)
	w.Add(entry(1))
	w.Add(entry(2))
	if w.Len() != 1 {
		t.Errorf("maxLen clamp failed: %d", w.Len())
	}
	if w.Weights()[0] != 1 {
		t.Error("invalid decay not clamped to 1")
	}
}
