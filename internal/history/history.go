// Package history maintains the sliding window of recent queries the MISO
// tuner analyzes, and the epoch-decayed weighting that turns per-query view
// benefits into a predicted future benefit (after Schnaitter et al.'s
// online index selection): the window is divided into epochs and a query's
// weight decays geometrically with its epoch's age, so recent queries
// dominate but older history still smooths the prediction.
package history

import (
	"miso/internal/logical"
)

// Entry is one observed query.
type Entry struct {
	// Seq is the query's position in the workload stream.
	Seq int
	// SQL is the original query text.
	SQL string
	// Plan is the raw (unrewritten) logical plan.
	Plan *logical.Node
}

// Window is a bounded sliding window of recent queries.
type Window struct {
	maxLen   int
	epochLen int
	decay    float64
	entries  []Entry
}

// NewWindow creates a window holding up to maxLen queries, grouped into
// epochs of epochLen queries, weighted by decay^epochAge. decay must be in
// (0, 1].
func NewWindow(maxLen, epochLen int, decay float64) *Window {
	if maxLen < 1 {
		maxLen = 1
	}
	if epochLen < 1 {
		epochLen = 1
	}
	if decay <= 0 || decay > 1 {
		decay = 1
	}
	return &Window{maxLen: maxLen, epochLen: epochLen, decay: decay}
}

// Add appends a query, evicting the oldest entries beyond capacity.
func (w *Window) Add(e Entry) {
	w.entries = append(w.entries, e)
	if len(w.entries) > w.maxLen {
		w.entries = w.entries[len(w.entries)-w.maxLen:]
	}
}

// Len returns the number of queries currently in the window.
func (w *Window) Len() int { return len(w.entries) }

// Entries returns the window contents, oldest first.
func (w *Window) Entries() []Entry { return w.entries }

// Weights returns the decay weight of each entry, parallel to Entries().
// The newest epoch has weight 1; each older epoch is multiplied by decay.
func (w *Window) Weights() []float64 {
	n := len(w.entries)
	out := make([]float64, n)
	for i := range w.entries {
		// Distance from the end, in epochs.
		age := (n - 1 - i) / w.epochLen
		weight := 1.0
		for a := 0; a < age; a++ {
			weight *= w.decay
		}
		out[i] = weight
	}
	return out
}
