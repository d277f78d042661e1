package multistore

import (
	"fmt"

	"miso/internal/durability"
	"miso/internal/history"
	"miso/internal/storage"
	"miso/internal/views"
)

// Recover rebuilds a System after a simulated process crash: it restores
// the last checkpoint, replays every WAL record past the checkpoint's LSN
// (stopping cleanly at a torn tail), resolves in-flight work — committed
// reorgs and transfers are kept, uncommitted ones rolled back — verifies
// the content checksum and base-log generation of every restored view, and
// quarantines the failures out of the design rather than serving them. All
// recovery work (replay plus the integrity scan over restored view bytes)
// is charged to the RECOVERY TTI component of the recovered system. The
// returned System is fully operational: serve.Server can resume on it, and
// the crash harness resubmits the query that died.
//
// The recovered system journals into a fresh WAL (created by New) and
// takes an immediate post-recovery checkpoint, exactly as a restarted
// process would truncate its log. Its fault injector is re-seeded from the
// dead WAL's length so a restart does not deterministically replay the
// crash that killed it.
func Recover(cfg Config, cat *storage.Catalog, ckpt *durability.Checkpoint, wal *durability.WAL) (*System, *durability.RecoveryReport, error) {
	if wal == nil {
		return nil, nil, fmt.Errorf("multistore: recover requires a WAL")
	}
	cfg.FaultSeed = cfg.FaultSeed*31 + int64(wal.LSN()) + 1
	s := New(cfg, cat)
	s.mu.Lock()
	defer s.mu.Unlock()
	report := &durability.RecoveryReport{}

	lsn := 0
	if ckpt != nil {
		lsn = ckpt.LSN
		sn, ok := ckpt.State.(*snapshot)
		if !ok {
			return nil, nil, fmt.Errorf("multistore: checkpoint state has unexpected type %T", ckpt.State)
		}
		if err := s.restoreSnapshot(sn); err != nil {
			return nil, nil, fmt.Errorf("multistore: restoring checkpoint: %w", err)
		}
	}

	recs, torn := wal.Replay(lsn)
	report.TornBytes = torn
	if err := s.applyWAL(wal, recs, report); err != nil {
		return nil, nil, err
	}

	s.verifyDesign(report)
	report.RestoredViews = s.hv.Views.Len() + s.dw.Views.Len()

	// Charge recovery: a fixed per-record replay cost plus the integrity
	// scan that re-reads every restored view at HV scan throughput. A clean
	// shutdown — checkpoint current, nothing to replay, no torn tail —
	// charges nothing, which is what makes clean-shutdown recovery
	// byte-identical (StateDigest) to the checkpointed live state.
	if report.ReplayedRecords > 0 || report.TornBytes > 0 {
		scan := s.cfg.HV.ScanMBps * float64(s.cfg.HV.Nodes) * 1e6
		bytes := s.hv.Views.TotalBytes() + s.dw.Views.TotalBytes()
		report.Seconds = 0.01*float64(report.ReplayedRecords) + float64(bytes)/scan
		s.metrics.Recovery += report.Seconds
	}
	s.metrics.Quarantined += len(report.Quarantined)

	if s.dur != nil {
		s.dur.Checkpoint(s.seq, s.snapshotLocked())
		s.jbase = s.designMap()
	}
	return s, report, nil
}

// applyWAL replays decoded records over the restored checkpoint. Records
// inside a reorg window (begin..commit) are buffered and applied only when
// the commit is durable; a begin with no commit by end-of-log is an
// in-flight reorganization that recovery rolls back by discarding the
// buffer. Transfers likewise: a begin with no commit or abort means the
// temp load was in flight, and DW temp space is per-query, so rollback is
// simply not restoring it.
func (s *System) applyWAL(wal *durability.WAL, recs []*durability.Record, report *durability.RecoveryReport) error {
	var inReorg bool
	var buffered []*durability.Record
	pendingTransfers := map[string]*durability.Record{}

	apply := func(rec *durability.Record) error {
		switch rec.Kind {
		case durability.KindViewAdmit:
			s.replayAdmit(wal, rec, report)
		case durability.KindViewEvict:
			s.hv.Views.Remove(rec.Name)
			s.dw.Views.Remove(rec.Name)
		case durability.KindQueryDone:
			if err := s.replayQueryDone(rec); err != nil {
				return err
			}
			report.ReplayedQueries++
		case durability.KindReorgCommit:
			s.reorgLog = append(s.reorgLog, ReorgRecord{
				BeforeSeq:       int(rec.Seq),
				MovedToDW:       int(rec.MovedToDW),
				MovedToHV:       int(rec.MovedToHV),
				Dropped:         int(rec.Dropped),
				Bytes:           rec.Bytes,
				Seconds:         rec.Seconds,
				FailedMoves:     int(rec.FailedMoves),
				RefundedBytes:   rec.RefundedBytes,
				RecoverySeconds: rec.RecoverySeconds,
			})
			s.metrics.Tune += rec.Seconds
			s.metrics.Recovery += rec.RecoverySeconds
			s.metrics.Retries += int(rec.Retries)
			s.metrics.Reorgs++
		case durability.KindTransferCommit, durability.KindTransferAbort:
			delete(pendingTransfers, rec.Name)
		case durability.KindLogGen:
			// The catalog survives the process; nothing to re-apply. The
			// post-replay verifyDesign pass re-quarantines stale views.
		}
		return nil
	}

	for _, rec := range recs {
		report.ReplayedRecords++
		switch rec.Kind {
		case durability.KindReorgBegin:
			inReorg = true
			buffered = buffered[:0]
		case durability.KindReorgCommit:
			for _, b := range buffered {
				if err := apply(b); err != nil {
					return err
				}
			}
			buffered = buffered[:0]
			inReorg = false
			if err := apply(rec); err != nil {
				return err
			}
		case durability.KindReorgAbort:
			buffered = buffered[:0]
			inReorg = false
		case durability.KindTransferBegin:
			pendingTransfers[rec.Name] = rec
		case durability.KindViewAdmit, durability.KindViewEvict:
			if inReorg {
				buffered = append(buffered, rec)
				continue
			}
			if err := apply(rec); err != nil {
				return err
			}
		default:
			if err := apply(rec); err != nil {
				return err
			}
		}
	}
	if inReorg {
		report.RolledBackReorgs++
	}
	for _, rec := range pendingTransfers {
		report.RolledBackTransfers++
		report.RefundedTransferBytes += rec.Bytes
	}
	return nil
}

// replayAdmit restores one journaled view admission from the WAL's durable
// payload space, verifying its content against the admit record's checksum
// before it may rejoin the design.
func (s *System) replayAdmit(wal *durability.WAL, rec *durability.Record, report *durability.RecoveryReport) {
	payload, ok := wal.Payload(rec.Name)
	if !ok {
		report.Quarantined = append(report.Quarantined, rec.Name)
		report.CorruptViews++
		return
	}
	v := payload.Clone()
	if !v.Verify() || v.Checksum != rec.Checksum {
		report.Quarantined = append(report.Quarantined, rec.Name)
		report.CorruptViews++
		return
	}
	// An admit replaces any previous placement (a moved view is journaled
	// as evict+admit, but be defensive about either ordering).
	s.hv.Views.Remove(rec.Name)
	s.dw.Views.Remove(rec.Name)
	if rec.Store == durability.StoreHV {
		s.installView(v, s.hv.Views)
	} else {
		s.installView(v, s.dw.Views)
	}
}

// replayQueryDone re-applies a completed query's bookkeeping: workload
// window entry, sequence counter, query count, TTI contribution, and a
// reconstructed report (result data itself is not journaled).
func (s *System) replayQueryDone(rec *durability.Record) error {
	plan, err := s.builder.BuildSQL(rec.SQL)
	if err != nil {
		return fmt.Errorf("multistore: replaying query %d: %w", rec.Seq, err)
	}
	s.window.Add(history.Entry{Seq: int(rec.Seq), SQL: rec.SQL, Plan: plan})
	s.seq = int(rec.Seq) + 1
	s.metrics.Queries++
	s.metrics.HVExe += rec.HVSeconds
	s.metrics.Transfer += rec.TransferSeconds
	s.metrics.DWExe += rec.DWSeconds
	s.metrics.Recovery += rec.RecoverySeconds
	s.metrics.Retries += int(rec.Retries)
	rep := &QueryReport{
		Seq:             int(rec.Seq),
		SQL:             rec.SQL,
		HVSeconds:       rec.HVSeconds,
		TransferSeconds: rec.TransferSeconds,
		DWSeconds:       rec.DWSeconds,
		RecoverySeconds: rec.RecoverySeconds,
		TransferBytes:   rec.Bytes,
		Retries:         int(rec.Retries),
		FellBackToHV:    rec.Flags&durability.FlagFellBack != 0,
		Degraded:        rec.Flags&durability.FlagDegraded != 0,
		HVOnly:          rec.Flags&durability.FlagHVOnly != 0,
		BypassedHV:      rec.Flags&durability.FlagBypassedHV != 0,
	}
	if rep.FellBackToHV {
		s.metrics.Fallbacks++
	}
	if rep.Degraded {
		s.metrics.Degraded++
	}
	s.reports.add(rep)
	return nil
}

// verifyDesign runs the post-replay integrity pass: every view in the
// recovered design must pass its content checksum and be no older than its
// base logs' current generation; failures are quarantined out.
func (s *System) verifyDesign(report *durability.RecoveryReport) {
	gen := func(name string) (int, bool) {
		log, err := s.cat.Log(name)
		if err != nil {
			return 0, false
		}
		return log.Generation, true
	}
	for _, set := range []*views.Set{s.hv.Views, s.dw.Views} {
		for _, v := range set.All() {
			switch {
			case !v.Verify():
				set.Remove(v.Name)
				report.Quarantined = append(report.Quarantined, v.Name)
				report.CorruptViews++
			case v.Stale(gen):
				set.Remove(v.Name)
				report.Quarantined = append(report.Quarantined, v.Name)
				report.StaleViews++
			}
		}
	}
}
