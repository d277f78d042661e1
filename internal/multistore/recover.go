package multistore

import (
	"fmt"

	"miso/internal/durability"
	"miso/internal/history"
	"miso/internal/hv"
	"miso/internal/storage"
)

// Recover rebuilds a System after a simulated process crash: it restores
// the last checkpoint, replays every WAL record past the checkpoint's LSN
// (stopping cleanly at a torn tail), resolves in-flight work — committed
// reorgs and transfers are kept, uncommitted ones rolled back — verifies
// the content checksum of every restored view, and quarantines the
// failures out of the design rather than serving them. All recovery work
// (replay plus the integrity scan over restored view bytes) is charged to
// the RECOVERY TTI component of the recovered system. The returned System
// is fully operational: serve.Server can resume on it, and the crash
// harness resubmits the query that died.
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
		bytes := s.hv.Views.TotalBytes() + s.dw.Views.TotalBytes()
		report.Seconds = 0.01*float64(report.ReplayedRecords) + float64(bytes)/hv.ScanBytesPerSec
		s.metrics.Recovery += report.Seconds
	}
	s.metrics.Quarantined += len(report.Quarantined)

	if s.checkpointLocked() != nil {
		s.resetJBase()
	}
	return s, report, nil
}

// applyWAL replays what durability.Fold says is durable over the restored
// checkpoint: a committed reorganization's design diff lands with its
// commit, an in-flight one (begin, no commit by end-of-log) is rolled back
// by never being applied. Transfers likewise: a begin with no commit or
// abort means the temp load was in flight, and DW temp space is per-query,
// so rollback is simply not restoring it.
func (s *System) applyWAL(wal *durability.WAL, recs []*durability.Record, report *durability.RecoveryReport) error {
	report.ReplayedRecords = len(recs)
	d := durability.Fold(recs)
	// The WAL keeps one payload per name, the latest admitted content, so
	// only an admit no later admit or evict of the name supersedes is
	// replayed: an earlier one would be checked against the newer payload
	// and quarantined as corrupt, and its effect is undone by what follows
	// anyway.
	last := make(map[string]int, len(d.Applied))
	for i, rec := range d.Applied {
		if rec.Kind == durability.KindViewAdmit || rec.Kind == durability.KindViewEvict {
			last[rec.Name] = i
		}
	}
	for i, rec := range d.Applied {
		switch rec.Kind {
		case durability.KindViewAdmit:
			if last[rec.Name] == i {
				s.replayAdmit(wal, rec, report)
			}
		case durability.KindViewEvict:
			for _, st := range s.stores() {
				st.views.Remove(rec.Name)
			}
		case durability.KindQueryDone:
			// Re-book the query through the live path's own charge and book
			// (window entry, sequence, count, TTI contribution, report).
			plan, err := s.builder.BuildSQL(rec.SQL)
			if err != nil {
				return fmt.Errorf("multistore: replaying query %d: %w", rec.Seq, err)
			}
			rep := journaledReport(rec)
			s.charge(rep)
			s.book(&query{entry: history.Entry{Seq: rep.Seq, SQL: rep.SQL, Plan: plan}, rep: rep})
			report.ReplayedQueries++
		case durability.KindReorgCommit:
			s.bookReorg(journaledReorg(rec))
			s.metrics.Retries += int(rec.Retries)
		case durability.KindRealize:
			s.bookRealize(journaledReorg(rec), int(rec.Retries))
		case durability.KindAppend:
			s.metrics.HVExe += rec.HVSeconds
		}
	}
	if d.OpenReorg {
		report.RolledBackReorgs++
	}
	for _, rec := range d.PendingTransfers {
		report.RolledBackTransfers++
		report.RefundedTransferBytes += rec.Bytes
	}
	return nil
}

// replayAdmit restores one journaled view admission from the WAL's durable
// payload space, verifying its content against the admit record's checksum
// before it may rejoin the design.
func (s *System) replayAdmit(wal *durability.WAL, rec *durability.Record, report *durability.RecoveryReport) {
	v, ok := wal.Payload(rec.Name)
	if !ok {
		report.Quarantined = append(report.Quarantined, rec.Name)
		report.CorruptViews++
		return
	}
	if !v.Verify() || v.Checksum != rec.Checksum {
		report.Quarantined = append(report.Quarantined, rec.Name)
		report.CorruptViews++
		return
	}
	// An admit replaces any previous placement (a moved view is journaled
	// as evict+admit, but be defensive about either ordering).
	for _, st := range s.stores() {
		st.views.Remove(rec.Name)
	}
	s.installView(v, s.storeFor(rec.Store).views)
}

// verifyDesign runs the post-replay integrity pass: every view in the
// recovered design must pass its content checksum; failures are
// quarantined out.
func (s *System) verifyDesign(report *durability.RecoveryReport) {
	for _, st := range s.stores() {
		for _, v := range st.views.All() {
			if v.Verify() {
				continue
			}
			st.views.Remove(v.Name)
			report.Quarantined = append(report.Quarantined, v.Name)
			report.CorruptViews++
		}
	}
}
