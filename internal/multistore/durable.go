package multistore

import (
	"hash"
	"hash/fnv"
	"math"
	"sort"

	"miso/internal/durability"
	"miso/internal/history"
	"miso/internal/stats"
	"miso/internal/storage"
	"miso/internal/views"
)

// This file is the multistore side of the durability plane: journaling of
// design mutations at operation boundaries, stale-view quarantine, the
// checkpoint snapshot, and the canonical state digest used to verify that
// clean-shutdown recovery is byte-identical to the live state.
//
// Journaling model: every public mutating operation (RunContext,
// RunDegraded, Reorganize, AppendToLog, RefreshLog) captures the design at
// entry (beginOp) and diffs it against the design at exit (endOp), emitting
// ViewEvict/ViewAdmit records in deterministic name order plus the
// operation's own record (QueryDone, LogGen, ReorgCommit inside reorg).
// Views materialized inside an operation that dies mid-flight were never
// journaled — they are uncommitted work and recovery does not resurrect
// them. "Committed" means: its admit record was durably appended.

// Durability returns the system's durability manager, or nil when
// CheckpointEvery is 0.
func (s *System) Durability() *durability.Manager { return s.dur }

// Checkpoint takes an immediate full-state checkpoint (e.g. at clean
// shutdown) and returns it. Nil when durability is disabled.
func (s *System) Checkpoint() *durability.Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur == nil {
		return nil
	}
	return s.dur.Checkpoint(s.seq, s.snapshotLocked())
}

// beginOp captures the design at an operation boundary; endOp diffs
// against it. Callers hold s.mu.
func (s *System) beginOp() {
	if s.dur == nil {
		return
	}
	s.jbase = s.designMap()
}

// endOp journals the operation's design diff, its final record (nil for
// operations fully described by the diff), and counts it toward the
// checkpoint cadence. A torn WAL append surfaces as faults.ErrCrash.
func (s *System) endOp(final *durability.Record) error {
	if s.dur == nil {
		return nil
	}
	if err := s.journalDesignDiff(); err != nil {
		return err
	}
	if final != nil {
		if err := s.dur.WAL().Append(final); err != nil {
			return err
		}
	}
	s.dur.MaybeCheckpoint(s.seq, func() any { return s.snapshotLocked() })
	return nil
}

// designMap flattens the current design into view name -> store tag.
func (s *System) designMap() map[string]byte {
	m := make(map[string]byte, s.hv.Views.Len()+s.dw.Views.Len())
	for _, v := range s.hv.Views.All() {
		m[v.Name] = durability.StoreHV
	}
	for _, v := range s.dw.Views.All() {
		m[v.Name] = durability.StoreDW
	}
	return m
}

// journalDesignDiff emits evict/admit records for every view whose
// placement changed since jbase, in sorted name order (evicts before
// admits, so a moved view is journaled as evict-from-source then
// admit-to-destination), and advances jbase to the current design.
func (s *System) journalDesignDiff() error {
	cur := s.designMap()
	names := make([]string, 0, len(s.jbase)+len(cur))
	seen := map[string]bool{}
	for n := range s.jbase {
		names = append(names, n)
		seen[n] = true
	}
	for n := range cur {
		if !seen[n] {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	wal := s.dur.WAL()
	for _, name := range names {
		old, wasIn := s.jbase[name]
		now, isIn := cur[name]
		if wasIn && (!isIn || old != now) {
			rec := &durability.Record{Kind: durability.KindViewEvict, Store: old, Name: name, Seq: int64(s.seq)}
			if err := wal.Append(rec); err != nil {
				return err
			}
		}
		if isIn && (!wasIn || old != now) {
			v := s.lookupView(name, now)
			if v == nil {
				continue
			}
			wal.PutPayload(v)
			rec := &durability.Record{
				Kind:     durability.KindViewAdmit,
				Store:    now,
				Name:     name,
				Seq:      int64(s.seq),
				Bytes:    v.SizeBytes(),
				Checksum: v.Checksum,
			}
			if err := wal.Append(rec); err != nil {
				return err
			}
		}
	}
	s.jbase = cur
	return nil
}

func (s *System) lookupView(name string, store byte) *views.View {
	if store == durability.StoreHV {
		v, _ := s.hv.Views.Get(name)
		return v
	}
	v, _ := s.dw.Views.Get(name)
	return v
}

// queryDoneRecord journals one completed query: sequence, SQL (so replay
// can rebuild the workload window), and its TTI contribution.
func queryDoneRecord(rep *QueryReport) *durability.Record {
	var flags uint64
	if rep.FellBackToHV {
		flags |= durability.FlagFellBack
	}
	if rep.Degraded {
		flags |= durability.FlagDegraded
	}
	if rep.HVOnly {
		flags |= durability.FlagHVOnly
	}
	if rep.BypassedHV {
		flags |= durability.FlagBypassedHV
	}
	return &durability.Record{
		Kind:            durability.KindQueryDone,
		Name:            "",
		SQL:             rep.SQL,
		Seq:             int64(rep.Seq),
		Bytes:           rep.TransferBytes,
		HVSeconds:       rep.HVSeconds,
		TransferSeconds: rep.TransferSeconds,
		DWSeconds:       rep.DWSeconds,
		RecoverySeconds: rep.RecoverySeconds,
		Retries:         int64(rep.Retries),
		Flags:           flags,
	}
}

// quarantineStale drops views whose base-log generation has advanced past
// the one they were materialized from — a direct catalog Reset would
// otherwise let them silently answer queries over data that no longer
// exists. Callers hold s.mu.
func (s *System) quarantineStale() {
	gen := s.catalogGen()
	quarantined := false
	for _, set := range []*views.Set{s.hv.Views, s.dw.Views} {
		for _, v := range set.All() {
			if v.Stale(gen) {
				set.Remove(v.Name)
				s.metrics.Quarantined++
				quarantined = true
			}
		}
	}
	if quarantined {
		// Results computed while the stale views were live may carry their
		// bytes: drop every cached entry.
		s.invalidateReuse()
	}
}

// snapshot is the checkpoint state: a deep-cloned image of everything a
// restart needs — design and view metadata, budgets travel in Config,
// sliding workload window, TTI accounting, variant progress flags, reorg
// history, and the report log (retained reports, evicted count and fold).
// Result tables are shared, not cloned: they are write-once and immutable
// after execution.
type snapshot struct {
	Variant  Variant
	Seq      int
	Metrics  Metrics
	EtlDone  bool
	OffTuned bool
	OffHV    []string
	OffDW    []string
	HV       []*views.View
	DW       []*views.View
	Window   []snapEntry
	Future   []snapEntry
	ReorgLog []ReorgRecord
	Reports  []*QueryReport
	// Evicted and EvictedFold carry the part of the report log that fell
	// off the ring (see reportLog).
	Evicted     int
	EvictedFold uint64
}

type snapEntry struct {
	Seq int
	SQL string
}

// snapshotLocked deep-clones the system state. Callers hold s.mu.
func (s *System) snapshotLocked() *snapshot {
	sn := &snapshot{
		Variant:  s.cfg.Variant,
		Seq:      s.seq,
		Metrics:  s.metrics,
		EtlDone:  s.etlDone,
		OffTuned: s.offTuned,
		ReorgLog: append([]ReorgRecord(nil), s.reorgLog...),
	}
	for name := range s.offTargetHV {
		sn.OffHV = append(sn.OffHV, name)
	}
	for name := range s.offTargetDW {
		sn.OffDW = append(sn.OffDW, name)
	}
	sort.Strings(sn.OffHV)
	sort.Strings(sn.OffDW)
	for _, v := range s.hv.Views.All() {
		sn.HV = append(sn.HV, v.Clone())
	}
	for _, v := range s.dw.Views.All() {
		sn.DW = append(sn.DW, v.Clone())
	}
	for _, e := range s.window.Entries() {
		sn.Window = append(sn.Window, snapEntry{Seq: e.Seq, SQL: e.SQL})
	}
	for _, e := range s.future {
		sn.Future = append(sn.Future, snapEntry{Seq: e.Seq, SQL: e.SQL})
	}
	sn.Reports = s.reports.copies()
	sn.Evicted, sn.EvictedFold = s.reports.evicted, s.reports.fold
	return sn
}

// restoreSnapshot installs a checkpoint image into a freshly constructed
// system. View and report structures are cloned again on the way in, so
// the recovered system never shares mutable state with the checkpoint.
func (s *System) restoreSnapshot(sn *snapshot) error {
	s.seq = sn.Seq
	s.metrics = sn.Metrics
	s.etlDone = sn.EtlDone
	s.offTuned = sn.OffTuned
	if len(sn.OffHV) > 0 || len(sn.OffDW) > 0 {
		s.offTargetHV = map[string]bool{}
		s.offTargetDW = map[string]bool{}
		for _, n := range sn.OffHV {
			s.offTargetHV[n] = true
		}
		for _, n := range sn.OffDW {
			s.offTargetDW[n] = true
		}
	}
	s.reorgLog = append([]ReorgRecord(nil), sn.ReorgLog...)
	for _, v := range sn.HV {
		s.installView(v.Clone(), s.hv.Views)
	}
	for _, v := range sn.DW {
		s.installView(v.Clone(), s.dw.Views)
	}
	for _, e := range sn.Window {
		plan, err := s.builder.BuildSQL(e.SQL)
		if err != nil {
			return err
		}
		s.window.Add(history.Entry{Seq: e.Seq, SQL: e.SQL, Plan: plan})
	}
	for _, e := range sn.Future {
		plan, err := s.builder.BuildSQL(e.SQL)
		if err != nil {
			return err
		}
		s.future = append(s.future, history.Entry{Seq: e.Seq, SQL: e.SQL, Plan: plan})
	}
	s.reports = reportLog{evicted: sn.Evicted, fold: sn.EvictedFold}
	for _, r := range sn.Reports {
		s.reports.add(r.clone())
	}
	return nil
}

// installView adds a restored view to a store set and re-primes the
// estimator with its observed statistics so post-recovery planning costs
// it the way the live system did.
func (s *System) installView(v *views.View, set *views.Set) {
	set.Add(v)
	if v.Table != nil {
		st := stats.Stat{Rows: int64(v.Table.NumRows()), Bytes: v.Table.LogicalBytes()}
		s.est.RecordView(v.Name, st)
		s.est.Record(v.Sig, st)
	}
}

// reportCap is how many query reports a System retains. A served instance
// answers queries for as long as it runs, and each report pins its result
// table; past this many the oldest is folded into a digest and let go.
const reportCap = 256

// reportLog is the bounded per-query report log: a ring of the most recent
// reportCap reports, plus the count of those that fell off it and their
// digests chained, in eviction order, into one word (fold becomes the
// digest of the old fold followed by the evicted report) — so StateDigest
// still covers every query ever answered, and Metrics.Queries can be
// checked against retained + evicted.
type reportLog struct {
	ring    []*QueryReport // oldest at ring[head] once full
	head    int
	evicted int
	fold    uint64
}

func (l *reportLog) add(r *QueryReport) {
	if len(l.ring) < reportCap {
		l.ring = append(l.ring, r)
		return
	}
	d := digester{fnv.New64a()}
	d.w(l.fold)
	d.report(l.ring[l.head])
	l.fold = d.h.Sum64()
	l.evicted++
	l.ring[l.head] = r
	l.head = (l.head + 1) % reportCap
}

// total is the number of reports ever added.
func (l *reportLog) total() int { return len(l.ring) + l.evicted }

// each visits the retained reports, oldest first.
func (l *reportLog) each(fn func(*QueryReport)) {
	for i := range l.ring {
		fn(l.ring[(l.head+i)%len(l.ring)])
	}
}

// copies returns deep copies of the retained reports, oldest first.
func (l *reportLog) copies() []*QueryReport {
	out := make([]*QueryReport, 0, len(l.ring))
	l.each(func(r *QueryReport) { out = append(out, r.clone()) })
	return out
}

// clone deep-copies the report; the result table is shared (write-once).
func (r *QueryReport) clone() *QueryReport {
	cp := *r
	cp.UsedViews = append([]string(nil), r.UsedViews...)
	return &cp
}

// digester writes StateDigest's canonical encoding of words, strings and
// reports into a hash.
type digester struct{ h hash.Hash64 }

func (d digester) w(parts ...uint64) {
	var buf [8]byte
	for _, p := range parts {
		for i := 0; i < 8; i++ {
			buf[i] = byte(p >> (8 * i))
		}
		d.h.Write(buf[:])
	}
}

func (d digester) ws(str string) {
	d.h.Write([]byte(str))
	d.h.Write([]byte{0})
}

func (d digester) report(r *QueryReport) {
	f := math.Float64bits
	d.w(uint64(r.Seq))
	d.ws(r.SQL)
	d.w(f(r.HVSeconds), f(r.TransferSeconds), f(r.DWSeconds), f(r.RecoverySeconds),
		uint64(r.TransferBytes), uint64(r.Retries), uint64(r.ResultRows))
	var flags uint64
	for i, b := range []bool{r.FellBackToHV, r.Degraded, r.HVOnly, r.BypassedHV} {
		if b {
			flags |= 1 << uint(i)
		}
	}
	d.w(flags)
	for _, u := range r.UsedViews {
		d.ws(u)
	}
	if r.Result != nil {
		d.w(storage.ChecksumTable(r.Result))
	} else {
		d.w(0)
	}
}

// StateDigest returns an FNV-64a digest of the system's durable state:
// variant, sequence counter, TTI accounting, both view sets (name,
// checksum, creation/use sequence, size), the workload window, the reorg
// history, and the per-query reports — the retained ones field by field,
// preceded, once any fell off the ring, by their count and fold (so a run
// of at most reportCap queries digests exactly as it did before the log
// was bounded). Two systems with equal digests are byte-identical in every
// field the checkpoint promises to preserve; the clean-shutdown regression
// checks digest equality between a live system and its recovered twin.
func (s *System) StateDigest() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	d := digester{fnv.New64a()}
	w, ws := d.w, d.ws
	f := math.Float64bits
	ws(string(s.cfg.Variant))
	w(uint64(s.seq))
	m := s.metrics
	w(f(m.HVExe), f(m.DWExe), f(m.Transfer), f(m.Tune), f(m.ETL), f(m.Recovery))
	w(uint64(m.Queries), uint64(m.Reorgs), uint64(m.Fallbacks), uint64(m.Retries),
		uint64(m.Canceled), uint64(m.Degraded), uint64(m.Quarantined))
	for _, set := range []struct {
		tag string
		vs  []*views.View
	}{{"hv", s.hv.Views.All()}, {"dw", s.dw.Views.All()}} {
		ws(set.tag)
		for _, v := range set.vs {
			ws(v.Name)
			ws(v.Sig)
			w(v.Checksum, uint64(v.CreatedSeq), uint64(v.LastUsedSeq), uint64(v.SizeBytes()))
			logs := make([]string, 0, len(v.LogGens))
			for name := range v.LogGens {
				logs = append(logs, name)
			}
			sort.Strings(logs)
			for _, name := range logs {
				ws(name)
				w(uint64(v.LogGens[name]))
			}
		}
	}
	ws("window")
	for _, e := range s.window.Entries() {
		w(uint64(e.Seq))
		ws(e.SQL)
	}
	ws("reorg")
	for _, r := range s.reorgLog {
		w(uint64(r.BeforeSeq), uint64(r.MovedToDW), uint64(r.MovedToHV), uint64(r.Dropped),
			uint64(r.Bytes), f(r.Seconds), uint64(r.FailedMoves), uint64(r.RefundedBytes),
			f(r.RecoverySeconds))
	}
	ws("reports")
	if s.reports.evicted > 0 {
		w(uint64(s.reports.evicted), s.reports.fold)
	}
	s.reports.each(d.report)
	return d.h.Sum64()
}
