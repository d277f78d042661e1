package multistore

import (
	"fmt"
	"slices"

	"miso/internal/durability"
	"miso/internal/views"
)

// AppendToLog ingests new records into a base log — the append-only update
// model the paper's Section 6 sketches as future work. Opportunistic views
// derived from the log become stale; this implementation invalidates them
// conservatively: every view (in either store) whose definition scans the
// log is dropped, and the statistics cache entries for subtrees over the
// log are discarded so future estimates reflect the new size. Views over
// other logs are untouched, and the next queries rebuild the dropped views
// organically — the same opportunistic mechanism that created them.
func (s *System) AppendToLog(name string, lines []string) (dropped int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.beginOp()
	dropped, err = s.appendLocked(name, lines)
	if err != nil {
		return dropped, err
	}
	return dropped, s.endOp()
}

func (s *System) appendLocked(name string, lines []string) (dropped int, err error) {
	log, err := s.cat.Log(name)
	if err != nil {
		return 0, err
	}
	if len(lines) == 0 {
		return 0, nil
	}
	for _, l := range lines {
		log.AppendLine(l)
	}

	overLog := func(v *views.View) bool { return slices.Contains(v.BaseLogs(), name) }
	for _, st := range s.stores() {
		dropped += st.views.RemoveIf(overLog)
	}
	s.est.InvalidateLog(name)
	// The log's content version advanced: refresh the reuse plane's
	// version mirror (fingerprints over the new content differ, making old
	// entries unreachable) and drop the cached results outright.
	s.syncLogVersion(name)
	s.invalidateReuse()
	return dropped, nil
}

// RefreshLog replaces a log wholesale (a new generation of the data set)
// and invalidates everything derived from it.
func (s *System) RefreshLog(name string, lines []string) (dropped int, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.beginOp()
	log, err := s.cat.Log(name)
	if err != nil {
		return 0, err
	}
	log.Reset()
	// The generation bump alone invalidates cached fingerprints even when
	// the refresh carries no lines (appendLocked returns early then).
	s.syncLogVersion(name)
	s.invalidateReuse()
	dropped, err = s.appendLocked(name, lines)
	if err != nil {
		return dropped, fmt.Errorf("multistore: refresh %q: %w", name, err)
	}
	return dropped, s.endOp(&durability.Record{
		Kind: durability.KindLogGen, Name: name,
		Seq: int64(s.seq), Gen: int64(log.Generation),
	})
}
