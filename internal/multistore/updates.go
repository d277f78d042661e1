package multistore

import (
	"slices"

	"miso/internal/durability"
	"miso/internal/views"
)

// AppendToLog ingests new records into a base log — the append-only update
// model the paper's Section 6 sketches as future work — and returns how many
// views it dropped. Views derived from the log would go stale; the ones a
// Hive-style store can bring forward over the new lines alone are
// maintained instead (hv.Store.MaintainAppend): an HV view whose definition
// is Filter and Project nodes over one Extract of the log gets the rows its
// definition yields over the new lines appended, unless that would take HV
// past Bh. That maintenance is one HV job charged to HVEXE and journaled
// with the append, and each maintained view is journaled as an admit of its
// new content. Every other view over the log, in either store, is dropped,
// and the next queries rebuild it organically — the same opportunistic
// mechanism that created it. Statistics of subtrees over the log and every
// result view are discarded; views over other logs are untouched.
func (s *System) AppendToLog(name string, lines []string) (dropped int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.beginOp()
	dropped, sec, err := s.appendLocked(name, lines)
	if err != nil {
		return dropped, err
	}
	var rec *durability.Record
	if sec > 0 {
		rec = &durability.Record{Kind: durability.KindAppend, Name: name, Seq: int64(s.seq), HVSeconds: sec}
	}
	return dropped, s.endOp(rec)
}

// appendLocked appends the lines, maintains or drops the views over the log
// and returns how many it dropped and the simulated seconds of the
// maintenance job, which it charged to HVEXE.
func (s *System) appendLocked(name string, lines []string) (dropped int, sec float64, err error) {
	log, err := s.cat.Log(name)
	if err != nil {
		return 0, 0, err
	}
	if len(lines) == 0 {
		return 0, 0, nil
	}
	for _, l := range lines {
		log.AppendLine(l)
	}

	dropped, sec = s.hv.MaintainAppend(log, lines, s.cfg.Tuner.Bh)
	s.metrics.HVExe += sec
	dropped += s.dw.Views.RemoveIf(func(v *views.View) bool { return slices.Contains(v.BaseLogs(), name) })
	// The log's content advanced: the estimator's version moves, which
	// retires every kept plan space, and a result view is keyed by its
	// plan's id alone, so every one goes now.
	s.est.InvalidateLog(name)
	s.invalidateReuse()
	return dropped, sec, nil
}
