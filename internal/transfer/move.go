package transfer

import (
	"context"
	"fmt"

	"miso/internal/faults"
)

// Kind selects the pipeline shape and fault sites of one movement.
type Kind int

const (
	// KindWorkingSet is a query-time HV→DW migration into temp space.
	KindWorkingSet Kind = iota
	// KindPermanent is a reorganization move into DW permanent space
	// (bulk load plus index build).
	KindPermanent
	// KindToHV is the reverse direction, DW export to HDFS: dump and
	// network only, no DW load phase.
	KindToHV
)

// MoveResult reports one movement through the pipeline under fault
// injection.
type MoveResult struct {
	// Breakdown is the productive per-phase time: for a completed move it
	// equals the fault-free Cost/CostToHV breakdown exactly; for an
	// aborted move it covers only the work that finished before the abort.
	Breakdown Breakdown
	// RecoverySeconds is the extra simulated time lost to failures:
	// rolled-back partial loads plus every backoff wait.
	RecoverySeconds float64
	// Retries counts injected failures survived (and, for an aborted
	// move, the final fatal one).
	Retries int
}

// MoveContext runs the resumable dump→network→load pipeline for the given
// bytes, drawing failures from the injector and recovering under the retry
// policy. The dump and network phases checkpoint progress, so a failure
// there re-pays nothing but the backoff wait — bytes already moved are not
// re-paid. Bulk loads are transactional per attempt (faults.RetryPolicy.
// Replay): a failure rolls back the partial load and re-pays it after
// backoff. Every phase gives up by the one rule, faults.RetryPolicy.GiveUp
// — the per-phase policy, then the caller's deadline — and the move then
// aborts with that error; the caller refunds any transfer budget it
// charged.
//
// With a nil injector the result is exactly the fault-free costing
// (Cost or CostToHV), bit for bit.
func MoveContext(ctx context.Context, bytes int64, kind Kind, inj *faults.Injector, retry faults.RetryPolicy) (*MoveResult, error) {
	retry = retry.OrDefault()
	ideal := Cost(bytes)
	if kind == KindToHV {
		ideal = CostToHV(bytes)
	}
	res := &MoveResult{}

	// resumable keeps its own progress arithmetic: a failure loses only the
	// backoff, and the productive time of an aborted phase is the fraction
	// that got through.
	resumable := func(site faults.Site, sec float64, op string) (float64, error) {
		done := 0.0
		for attempt := 1; ; attempt++ {
			failed, frac := inj.Check(site)
			if !failed {
				return sec, nil
			}
			res.Retries++
			done += (1 - done) * frac
			res.RecoverySeconds += retry.Backoff(attempt)
			if err := retry.GiveUp(ctx, site, op, attempt); err != nil {
				return done * sec, fmt.Errorf("transfer: %s: %w", op, err)
			}
		}
	}

	op := func(phase string) string { return fmt.Sprintf("%s phase of %d-byte move", phase, bytes) }

	sec, err := resumable(faults.SiteTransferDump, ideal.Dump, op("dump"))
	res.Breakdown.Dump = sec
	if err != nil {
		return res, err
	}
	sec, err = resumable(faults.SiteTransferNet, ideal.Network, op("network"))
	res.Breakdown.Network = sec
	if err != nil {
		return res, err
	}
	if kind != KindToHV {
		site := faults.SiteTransferLoad
		if kind == KindPermanent {
			site = faults.SiteDWLoad
		}
		load := op("load")
		if err := retry.Replay(ctx, inj, site, load, ideal.Load, &res.Retries, &res.RecoverySeconds); err != nil {
			return res, fmt.Errorf("transfer: %s: %w", load, err)
		}
		res.Breakdown.Load = ideal.Load
	}
	return res, nil
}
