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
	// Completed reports whether the bytes reached the destination.
	Completed bool
}

// WastedSeconds is the time an *aborted* move threw away: everything it
// paid, productive or not, since none of it delivered data. For a
// completed move it returns only the recovery overhead.
func (r *MoveResult) WastedSeconds() float64 {
	if r.Completed {
		return r.RecoverySeconds
	}
	return r.Breakdown.Total() + r.RecoverySeconds
}

// Move runs the resumable dump→network→load pipeline for the given bytes,
// drawing failures from the injector and recovering under the retry
// policy. The dump and network phases checkpoint progress, so a failure
// there re-pays nothing but the backoff wait — bytes already moved are not
// re-paid. Bulk loads are transactional per attempt: a failure rolls back
// the partial load and re-pays it after backoff. When a phase runs out of
// attempts the move aborts with an error wrapping faults.ErrExhausted and
// the fatal *faults.Fault; the caller refunds any budget it charged.
//
// With a nil injector the result is exactly the fault-free costing
// (Cost or CostToHV), bit for bit.
func Move(cfg Config, bytes int64, kind Kind, inj *faults.Injector, retry faults.RetryPolicy) (*MoveResult, error) {
	return MoveContext(context.Background(), cfg, bytes, kind, inj, retry)
}

// MoveContext is Move under a caller deadline and the shared retry budget
// ctx carries (faults.WithBudget). Before paying another attempt each
// phase checks the context — a dead context aborts the move immediately
// (no retry can fit inside an expired deadline) — and consumes one retry
// from the budget, aborting with an error wrapping faults.ErrBudget (and
// therefore faults.ErrExhausted) when the budget runs dry. A background
// context makes it byte-identical to Move.
func MoveContext(ctx context.Context, cfg Config, bytes int64, kind Kind, inj *faults.Injector, retry faults.RetryPolicy) (*MoveResult, error) {
	retry = retry.OrDefault()
	bud := faults.BudgetFrom(ctx)
	ideal := Cost(cfg, bytes)
	if kind == KindToHV {
		ideal = CostToHV(cfg, bytes)
	}
	res := &MoveResult{}

	// giveUp decides, after an injected failure was drawn and charged,
	// whether the phase may pay another attempt: the per-phase policy, the
	// caller's deadline, and the shared budget all have to agree.
	giveUp := func(site faults.Site, attempt int, op string) error {
		f := &faults.Fault{Site: site, Op: op, Attempt: attempt}
		switch {
		case attempt >= retry.MaxAttempts:
			return faults.Exhausted(f)
		case ctx.Err() != nil:
			return fmt.Errorf("abandoned before retry: %w", ctx.Err())
		case !bud.Take():
			return faults.BudgetExhausted(f)
		}
		return nil
	}

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
			if err := giveUp(site, attempt, op); err != nil {
				return done * sec, fmt.Errorf("transfer: %s: %w", op, err)
			}
		}
	}
	transactional := func(site faults.Site, sec float64, op string) (float64, error) {
		for attempt := 1; ; attempt++ {
			failed, frac := inj.Check(site)
			if !failed {
				return sec, nil
			}
			res.Retries++
			res.RecoverySeconds += frac*sec + retry.Backoff(attempt)
			if err := giveUp(site, attempt, op); err != nil {
				return 0, fmt.Errorf("transfer: %s: %w", op, err)
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
		sec, err = transactional(site, ideal.Load, op("load"))
		res.Breakdown.Load = sec
		if err != nil {
			return res, err
		}
	}
	res.Completed = true
	return res, nil
}
