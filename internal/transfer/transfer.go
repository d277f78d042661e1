// Package transfer models data movement between the stores: the
// dump-transfer-load pipeline a multistore execution pays when migrating a
// working set from HV to DW, and that reorganization phases pay when moving
// views. It also tracks the view transfer budget (Bt) consumed during a
// reorganization.
package transfer

import "fmt"

// The pipeline's calibration, in MB/s: the paper's staging-disk dump, its
// 1GbE inter-rack link, and the DW bulk load (§5).
const (
	// dumpMBps is the rate of dumping intermediate data out of HV.
	dumpMBps = 100
	// netMBps is the aggregate network transfer rate between clusters.
	netMBps = 117
	// loadMBps is the DW bulk-load rate (including index build).
	loadMBps = 25
)

// Breakdown is the simulated seconds spent in each phase of one movement.
type Breakdown struct {
	Dump    float64
	Network float64
	Load    float64
}

// Total returns the end-to-end seconds.
func (b Breakdown) Total() float64 { return b.Dump + b.Network + b.Load }

// Cost returns the time breakdown for moving the given logical bytes from
// HV into DW.
func Cost(bytes int64) Breakdown {
	return Breakdown{
		Dump:    float64(bytes) / (dumpMBps * 1e6),
		Network: float64(bytes) / (netMBps * 1e6),
		Load:    float64(bytes) / (loadMBps * 1e6),
	}
}

// CostToHV returns the time for the reverse direction (DW export to HDFS
// write); there is no DW load phase.
func CostToHV(bytes int64) Breakdown {
	return Breakdown{
		Dump:    float64(bytes) / (dumpMBps * 1e6),
		Network: float64(bytes) / (netMBps * 1e6),
	}
}

// Budget tracks consumption of the per-reorganization view transfer budget.
type Budget struct {
	limit int64
	used  int64
}

// NewBudget creates a budget of limit bytes.
func NewBudget(limit int64) *Budget { return &Budget{limit: limit} }

// Limit returns the configured limit in bytes.
func (b *Budget) Limit() int64 { return b.limit }

// Used returns the bytes consumed so far.
func (b *Budget) Used() int64 { return b.used }

// Remaining returns the unconsumed budget.
func (b *Budget) Remaining() int64 {
	r := b.limit - b.used
	if r < 0 {
		return 0
	}
	return r
}

// Fits reports whether n more bytes fit. Written as a subtraction so a
// huge n cannot overflow b.used+n past MaxInt64 (used never exceeds limit).
func (b *Budget) Fits(n int64) bool { return n <= b.limit-b.used }

// Spend consumes n bytes, failing when the budget would be exceeded.
func (b *Budget) Spend(n int64) error {
	if n < 0 {
		return fmt.Errorf("transfer: cannot spend negative bytes (%d)", n)
	}
	if !b.Fits(n) {
		return fmt.Errorf("transfer: budget exceeded: spend of %d exceeds remaining %d (limit %d, used %d)",
			n, b.Remaining(), b.limit, b.used)
	}
	b.used += n
	return nil
}

// Refund returns n bytes to the budget — an aborted or rolled-back move
// does not consume Bt. Usage floors at zero: refunding more than was
// spent leaves a full budget rather than a negative one.
func (b *Budget) Refund(n int64) {
	if n <= 0 {
		return
	}
	b.used -= n
	if b.used < 0 {
		b.used = 0
	}
}
