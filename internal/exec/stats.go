package exec

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"miso/internal/logical"
)

const numKinds = int(logical.KindViewScan) + 1

// Stats accumulates per-operator execution counters. All methods are safe
// for concurrent use; one Stats can be shared by every Env in a system so
// interactive tools can print where query wall-clock actually goes.
type Stats struct {
	ops [numKinds]opCounters
}

type opCounters struct {
	calls   atomic.Int64
	rows    atomic.Int64
	nanos   atomic.Int64
	batches atomic.Int64
	rowsIn  atomic.Int64
}

func (s *Stats) record(k logical.Kind, rows int, d time.Duration) {
	if s == nil || int(k) >= numKinds {
		return
	}
	c := &s.ops[k]
	c.calls.Add(1)
	c.rows.Add(int64(rows))
	c.nanos.Add(d.Nanoseconds())
}

// recordColumnar adds batch-path counters for one operator run: how many
// column batches (morsels) it processed and how many input rows they held.
// Together with the output row counter this exposes per-operator
// selectivity — Rows/RowsIn — without touching the hot loops.
func (s *Stats) recordColumnar(k logical.Kind, batches, rowsIn int64) {
	if s == nil || int(k) >= numKinds {
		return
	}
	c := &s.ops[k]
	c.batches.Add(batches)
	c.rowsIn.Add(rowsIn)
}

// recordColumnar forwards batch counters to the Env's Stats (nil-safe).
func (env *Env) recordColumnar(k logical.Kind, batches, rowsIn int64) {
	env.Stats.recordColumnar(k, batches, rowsIn)
}

// OpStat is one operator's aggregate timings.
type OpStat struct {
	// Op is the operator name (extract, filter, join, ...).
	Op string
	// Calls is how many operator instances ran.
	Calls int64
	// Rows is the total output rows across those calls.
	Rows int64
	// Time is the summed wall clock across those calls.
	Time time.Duration
	// Batches is the number of column batches (morsels) the columnar path
	// processed; zero when the operator ran serially.
	Batches int64
	// RowsIn is the total input rows those batches held.
	RowsIn int64
}

// Selectivity returns output rows per input row for the columnar path, or
// 0 when no input rows were counted.
func (o OpStat) Selectivity() float64 {
	if o.RowsIn == 0 {
		return 0
	}
	return float64(o.Rows) / float64(o.RowsIn)
}

// Breakdown returns the non-empty operator rows in fixed kind order.
func (s *Stats) Breakdown() []OpStat {
	if s == nil {
		return nil
	}
	var out []OpStat
	for k := 0; k < numKinds; k++ {
		c := &s.ops[k]
		calls := c.calls.Load()
		if calls == 0 {
			continue
		}
		out = append(out, OpStat{
			Op:      logical.Kind(k).String(),
			Calls:   calls,
			Rows:    c.rows.Load(),
			Time:    time.Duration(c.nanos.Load()),
			Batches: c.batches.Load(),
			RowsIn:  c.rowsIn.Load(),
		})
	}
	return out
}

// WriteBreakdown renders the breakdown as an aligned table.
func (s *Stats) WriteBreakdown(w io.Writer) {
	rows := s.Breakdown()
	if len(rows) == 0 {
		return
	}
	var total time.Duration
	for _, r := range rows {
		total += r.Time
	}
	fmt.Fprintf(w, "  %-10s %7s %10s %12s %6s %8s %10s %6s\n",
		"operator", "calls", "rows", "time", "share", "batches", "rows_in", "sel")
	for _, r := range rows {
		share := 0.0
		if total > 0 {
			share = float64(r.Time) / float64(total) * 100
		}
		sel := "-"
		if r.RowsIn > 0 {
			sel = fmt.Sprintf("%.2f", r.Selectivity())
		}
		fmt.Fprintf(w, "  %-10s %7d %10d %12s %5.1f%% %8d %10d %6s\n",
			r.Op, r.Calls, r.Rows, r.Time.Round(time.Microsecond), share, r.Batches, r.RowsIn, sel)
	}
}
