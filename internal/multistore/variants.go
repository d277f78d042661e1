package multistore

import (
	"context"
	"fmt"

	"miso/internal/core"
	"miso/internal/durability"
	"miso/internal/faults"
	"miso/internal/history"
	"miso/internal/hv"
	"miso/internal/logical"
	"miso/internal/optimizer"
	"miso/internal/storage"
	"miso/internal/transfer"
	"miso/internal/views"
)

// runVariant takes the query the way the system's variant does: the
// variant's pre-step (a due reorganization, the one-time ETL or offline
// tuning), then its execution. What a variant does to the design after
// the query is settleVariant's, run once the report is charged.
func (s *System) runVariant(q *query) error {
	switch s.cfg.Variant {
	case VariantHVOnly:
		return s.runInHV(q, q.entry.Plan)
	case VariantHVOp:
		return s.runInHV(q, optimizer.RewriteWithViews(q.entry.Plan, s.hv.Views))
	case VariantDWOnly:
		return s.runDWOnly(q)
	case VariantMSBasic:
		return s.runSplit(q, optimizer.EmptyDesign(), nil)
	case VariantMSLru:
		return s.runSplit(q, s.design(), s.retainWorkingSet)
	case VariantMSMiso, VariantMSOra:
		if s.reorgDue() {
			if err := s.reorg(s.tuningWindow()); err != nil {
				return err
			}
		}
		return s.runSplit(q, s.design(), nil)
	case VariantMSOff:
		if !s.offTuned {
			if err := s.offlineTune(); err != nil {
				return err
			}
			s.offTuned = true
			s.checkpointLocked()
		}
		return s.runSplit(q, s.design(), nil)
	default:
		return fmt.Errorf("multistore: unknown variant %q", s.cfg.Variant)
	}
}

// settleVariant is the variant's post-step: what it keeps of the views
// the query left behind. It returns the record the query's booking
// journals after its own, or nil.
func (s *System) settleVariant() *durability.Record {
	switch s.cfg.Variant {
	case VariantHVOnly, VariantMSBasic:
		s.hv.Views.Reset() // no retention: transfers and by-products are discarded
	case VariantHVOp:
		// Opportunistic views are reused and retained under an LRU policy
		// within the HV storage budget.
		views.EvictLRU(s.hv.Views, s.cfg.Tuner.Bh)
	case VariantMSLru:
		// The passive tuner of the paper's Figure 7: only the working sets
		// transferred during query execution are retained, as DW-resident
		// views under an LRU policy — an access-based cache with no benefit
		// or interaction analysis. HV by-products are not retained (that
		// would be HV-OP's mechanism, not passive transfer caching).
		views.EvictLRU(s.dw.Views, s.cfg.Tuner.Bd)
		s.hv.Views.Reset()
	case VariantMSOff:
		return s.trimHVToDesign()
	}
	return nil
}

// retainWorkingSet is MS-LRU's passive retention: a working set that
// reached DW becomes a DW view keyed by its base-data definition.
func (s *System) retainWorkingSet(q *query, cut *logical.Node, ws *storage.Table) {
	def := s.hv.ExpandViews(cut)
	if def == nil {
		return
	}
	v := views.New(def, ws, q.entry.Seq)
	// A quarantine-tombstoned name must not resurrect through passive
	// retention any more than through capture.
	if !s.dw.Views.Has(v.Name) && !s.tombstoned(v.Name) {
		s.dw.Views.Add(v)
	}
}

// runDWOnly serves the query entirely from DW after the one-time ETL.
func (s *System) runDWOnly(q *query) error {
	if !s.etlDone {
		if err := s.runETL(); err != nil {
			return err
		}
		s.etlDone = true
		s.checkpointLocked()
	}
	plan := optimizer.RewriteWithViews(q.entry.Plan, s.dw.Views)
	if hasRawScan(plan) {
		return fmt.Errorf("multistore: DW-ONLY query %d not covered by the ETL'd data", q.entry.Seq)
	}
	res, err := s.dw.ExecuteContext(q.ctx, plan)
	if err != nil {
		return s.failedIn(q, "DW", err)
	}
	// DW-ONLY has no other store to degrade to: injected query failures
	// retry in place and exhaustion fails the query.
	if err := s.retry.Replay(q.ctx, s.inj, faults.SiteDWQuery, "dw query", res.Seconds, &q.rep.Retries, &q.rep.RecoverySeconds); err != nil {
		return fmt.Errorf("multistore: query %d in DW: %w", q.entry.Seq, err)
	}
	q.rep.BypassedHV = true
	s.answerFromDW(q, plan, res)
	return nil
}

// reorg runs the MISO tuner over the window and applies the view
// movements one at a time, charging their time to TUNE. Each move runs
// through the fault-injected transfer pipeline and commits atomically: a
// move that aborts (or whose catalog commit fails) is rolled back — the
// view stays in its source store when it still fits there, its Bt
// consumption is refunded, and Vh ∩ Vd = ∅ holds no matter which moves
// fail. Time lost to failed moves is charged to RECOVERY, not TUNE.
func (s *System) reorg(w *history.Window) error {
	// Drop the result views before tuning: the phase is about to
	// rearrange the physical design, and the tuner's what-if costing must
	// probe an empty set to stay deterministic.
	s.invalidateReuse()
	if err := s.journal(&durability.Record{Kind: durability.KindReorgBegin, Seq: int64(s.seq)}); err != nil {
		return err
	}
	tuner := core.NewTuner(s.cfg.Tuner, s.opt)
	r, err := tuner.Tune(s.design(), w)
	if err != nil {
		// The process lives on (a contained what-if panic): close the window,
		// or recovery would take everything journaled after it for its own.
		if jerr := s.journal(&durability.Record{Kind: durability.KindReorgAbort, Seq: int64(s.seq)}); jerr != nil {
			return jerr
		}
		return fmt.Errorf("multistore: tuning: %w", err)
	}
	rec := ReorgRecord{BeforeSeq: s.seq, Dropped: len(r.DropHV)}
	moveRetries := 0 // the commit record's: ReorgRecord does not keep them
	bud := transfer.NewBudget(s.cfg.Tuner.Bt)

	// rollBack undoes one failed move: v stays in its source set (or is
	// dropped when the source has no room left) and its budget returns.
	rollBack := func(v *views.View, from *views.Set, limit int64, wasted float64) {
		bud.Refund(v.SizeBytes())
		rec.FailedMoves++
		rec.RefundedBytes += v.SizeBytes()
		rec.RecoverySeconds += wasted
		if from.TotalBytes()+v.SizeBytes() <= limit {
			from.Add(v)
		} else {
			rec.Dropped++
		}
	}

	apply := func(v *views.View, kind transfer.Kind, dst, src *views.Set, srcLimit int64) {
		size := v.SizeBytes()
		if err := bud.Spend(size); err != nil {
			// The tuner packs moves within Bt; treat any slack violation
			// as a skipped move rather than a failed reorganization.
			dst.Remove(v.Name)
			rollBack(v, src, srcLimit, 0)
			return
		}
		productive, recovery, retries, mvErr := s.move(context.Background(), size, kind)
		committed := mvErr == nil
		if committed {
			// The catalog commit itself can fail: the fully transferred
			// view is discarded at the destination, atomically.
			if failed, _ := s.inj.Check(faults.SiteReorgMove); failed {
				committed = false
				retries++
			}
		}
		s.metrics.Retries += retries
		moveRetries += retries
		if !committed {
			dst.Remove(v.Name)
			rollBack(v, src, srcLimit, productive+recovery)
			return
		}
		rec.RecoverySeconds += recovery
		rec.Seconds += productive
		rec.Bytes += size
		if kind == transfer.KindToHV {
			rec.MovedToHV++
		} else {
			rec.MovedToDW++
		}
	}

	for _, v := range r.MoveToDW {
		apply(v, transfer.KindPermanent, r.NewDW, r.NewHV, s.cfg.Tuner.Bh)
	}
	for _, v := range r.MoveToHV {
		apply(v, transfer.KindToHV, r.NewHV, r.NewDW, s.cfg.Tuner.Bd)
	}

	// Crash site: the moves above mutated only the candidate sets; dying
	// here leaves an open reorg window in the WAL (begin, no commit) and
	// the live design untouched, so recovery rolls the whole phase back.
	if failed, _ := s.inj.Check(faults.SiteCrashReorg); failed {
		return fmt.Errorf("multistore: reorg before query %d: %w", s.seq, faults.Crash(faults.SiteCrashReorg))
	}

	s.hv.Views.ReplaceAll(r.NewHV)
	s.dw.Views.ReplaceAll(r.NewDW)
	// The tuner rebuilt the design from the surviving views, so quarantine
	// tombstones have served their purpose: any future materialization of
	// a tombstoned name is a legitimately fresh recomputation.
	s.tomb = nil
	s.bookReorg(rec)

	// Commit the reorg transaction: the design diff lands inside the
	// begin..commit window, so recovery applies it atomically — all of it
	// when the commit record is durable, none of it otherwise.
	if s.dur == nil {
		return nil
	}
	if err := s.journalDesignDiff(); err != nil {
		return err
	}
	return s.journal(reorgRecord(durability.KindReorgCommit, rec, moveRetries))
}

// bookReorg enters a committed reorganization into the TTI breakdown, the
// counter and the ledger: the one booking, for the live phase and for
// journal replay alike.
func (s *System) bookReorg(rec ReorgRecord) {
	s.metrics.Tune += rec.Seconds
	s.metrics.Recovery += rec.RecoverySeconds
	s.metrics.Reorgs++
	s.reorgLog = append(s.reorgLog, rec)
}

// journal appends one record to the WAL when durability is enabled.
func (s *System) journal(rec *durability.Record) error {
	if s.dur == nil {
		return nil
	}
	return s.dur.WAL().Append(rec)
}

// offlineTune (MS-OFF) models what a current offline design tool can do:
// analyze the whole workload up-front (a dry run whose data is discarded)
// and fix one target design. Views still only come into existence as
// by-products of real query execution; realizing a chosen DW placement is
// charged to TUNE when the view first appears.
func (s *System) offlineTune() error {
	if len(s.future) == 0 {
		return fmt.Errorf("multistore: MS-OFF requires ProvideFutureWorkload")
	}
	if err := s.analyze(s.hv); err != nil {
		return err
	}
	w := history.NewWindow(len(s.future), len(s.future), 1.0)
	for _, e := range s.future {
		w.Add(e)
	}
	tuner := core.NewTuner(s.cfg.Tuner, s.opt)
	r, err := tuner.Tune(s.design(), w)
	if err != nil {
		return err
	}
	s.offTargetHV = map[string]bool{}
	s.offTargetDW = map[string]bool{}
	for _, v := range r.NewHV.All() {
		s.offTargetHV[v.Name] = true
	}
	for _, v := range r.NewDW.All() {
		s.offTargetDW[v.Name] = true
	}
	// The dry run's materializations are analysis artifacts, not free
	// physical design: discard them.
	s.hv.Views.Reset()
	s.dw.Views.Reset()
	return nil
}

// analyze is MS-OFF's dry run of the future workload through h. Besides the
// views h captures, it leaves every executed node's truth in the shared
// estimator, where later planning reads it; recovery repeats it on a
// scratch store because no checkpoint carries the estimator.
func (s *System) analyze(h *hv.Store) error {
	for _, e := range s.future {
		if _, err := h.ExecuteContext(context.Background(), e.Plan, e.Seq); err != nil {
			return fmt.Errorf("multistore: offline analysis of query %d: %w", e.Seq, err)
		}
	}
	return nil
}

// trimHVToDesign enforces the fixed offline design after each query: new
// by-products that the design chose for DW are transferred (charged to
// TUNE and logged as a movement before the next query), ones chosen for HV
// are kept, everything else is dropped. A realization that moved or failed
// to move a view is booked by bookRealize and returned as the record to
// journal, nil otherwise.
func (s *System) trimHVToDesign() *durability.Record {
	rec := ReorgRecord{BeforeSeq: s.seq + 1}
	retries := 0
	for _, v := range s.hv.Views.All() {
		switch {
		case s.offTargetDW[v.Name]:
			if !s.dw.Views.Has(v.Name) {
				productive, recovery, moveRetries, mvErr := s.move(context.Background(), v.SizeBytes(), transfer.KindPermanent)
				retries += moveRetries
				if mvErr != nil {
					// Rolled back: the view stays in HV and the design
					// realization retries after a later query.
					rec.FailedMoves++
					rec.RecoverySeconds += productive + recovery
					continue
				}
				rec.RecoverySeconds += recovery
				rec.Seconds += productive
				rec.Bytes += v.SizeBytes()
				rec.MovedToDW++
				s.dw.Views.Add(v)
			}
			s.hv.Views.Remove(v.Name)
		case s.offTargetHV[v.Name]:
			// Keep.
		default:
			s.hv.Views.Remove(v.Name)
			rec.Dropped++
		}
	}
	views.EvictLRU(s.hv.Views, s.cfg.Tuner.Bh)
	if rec.MovedToDW == 0 && rec.FailedMoves == 0 {
		return nil
	}
	s.bookRealize(rec, retries)
	return reorgRecord(durability.KindRealize, rec, retries)
}

// bookRealize enters MS-OFF's realization of its design into the TTI
// breakdown and the ledger (it is no reorganization: Reorgs stays): the one
// booking, for the live path and for journal replay alike.
func (s *System) bookRealize(rec ReorgRecord, retries int) {
	s.metrics.Retries += retries
	s.metrics.Tune += rec.Seconds
	s.metrics.Recovery += rec.RecoverySeconds
	s.reorgLog = append(s.reorgLog, rec)
}

// markUsedViews touches every view the plan reads (Set.Touch) and returns
// their names.
func (s *System) markUsedViews(plan *logical.Node, seq int) []string {
	var used []string
	plan.Walk(func(n *logical.Node) {
		if n.Kind != logical.KindViewScan {
			return
		}
		for _, st := range s.stores() {
			if st.views.Touch(n.ViewName, seq) {
				used = append(used, n.ViewName)
				return
			}
		}
	})
	return used
}

// countOps counts executable operators in a plan (Scan leaves excluded).
func countOps(plan *logical.Node) int {
	n := 0
	plan.Walk(func(m *logical.Node) {
		if m.Kind != logical.KindScan {
			n++
		}
	})
	return n
}

// hasRawScan reports whether the plan still reads raw logs.
func hasRawScan(plan *logical.Node) bool {
	found := false
	plan.Walk(func(n *logical.Node) {
		if n.Kind == logical.KindScan || n.Kind == logical.KindExtract {
			found = true
		}
	})
	return found
}
