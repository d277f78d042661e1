package multistore

import (
	"hash"
	"hash/fnv"
	"math"
	"sort"

	"miso/internal/durability"
	"miso/internal/history"
	"miso/internal/hv"
	"miso/internal/stats"
	"miso/internal/storage"
	"miso/internal/views"
)

// This file is the multistore side of the durability plane: journaling of
// design mutations at operation boundaries, the checkpoint snapshot, and
// the canonical state digest used to verify that clean-shutdown recovery is
// byte-identical to the live state.
//
// Journaling model: every public mutating operation (RunContext,
// RunDegraded, Reorganize, AppendToLog) captures the design at entry
// (beginOp) and diffs it against the design at exit (endOp), emitting
// ViewEvict/ViewAdmit records in deterministic name order plus the
// operation's own record (QueryDone, Append, ReorgCommit inside reorg).
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
	return s.checkpointLocked()
}

// checkpointLocked takes a checkpoint when durability is on. Besides the
// cadence and explicit calls, the system takes one wherever it changes state
// the journal does not carry: at boot, after recovery, after
// ProvideFutureWorkload, and after DW-ONLY's ETL and MS-OFF's offline
// design (one-time phases inside the first query; the diff and the
// QueryDone that follow replay over it). Callers hold s.mu.
func (s *System) checkpointLocked() *durability.Checkpoint {
	if s.dur == nil {
		return nil
	}
	return s.dur.Checkpoint(s.seq, s.snapshotLocked())
}

// beginOp captures the design at an operation boundary; endOp diffs
// against it. While neither store's view set has moved since jbase was
// taken, jbase is still the design and nothing is rebuilt. Callers hold
// s.mu.
func (s *System) beginOp() {
	if s.dur == nil || !s.designMoved() {
		return
	}
	s.resetJBase()
}

// designVersions is the pair of view-set versions the design stands at. A
// write that changes a view's placement or stamp moves it; Touch does not,
// and neither Touch nor rot journals anything.
func (s *System) designVersions() [2]uint64 {
	return [2]uint64{s.hv.Views.Version(), s.dw.Views.Version()}
}

// ungatedJournal, when a test sets it, makes every operation boundary
// rebuild and diff the design as if a view set had moved.
var ungatedJournal bool

// designMoved reports whether either view set has moved since jbase was
// taken; while neither has, jbase is the design.
func (s *System) designMoved() bool {
	return ungatedJournal || s.jver != s.designVersions()
}

// resetJBase takes jbase from the current design, with the versions it was
// taken at. Callers hold s.mu.
func (s *System) resetJBase() {
	s.jver = s.designVersions()
	s.jbase = s.designMap()
}

// endOp journals the operation's design diff, its final records in order
// (nil ones skipped; none for operations fully described by the diff), and
// counts it toward the checkpoint cadence. A torn WAL append surfaces as
// faults.ErrCrash.
func (s *System) endOp(final ...*durability.Record) error {
	if s.dur == nil {
		return nil
	}
	if err := s.journalDesignDiff(); err != nil {
		return err
	}
	for _, rec := range final {
		if rec == nil {
			continue
		}
		if err := s.dur.WAL().Append(rec); err != nil {
			return err
		}
	}
	s.dur.MaybeCheckpoint(s.seq, func() any { return s.snapshotLocked() })
	return nil
}

// residency is one of the two stores as the design, the journal and the
// audit see it.
type residency struct {
	views  *views.Set
	store  byte   // the journal's tag (durability.StoreHV / StoreDW)
	tag    string // the audit's and the digest's tag
	budget int64  // the storage budget its views must fit (Bh / Bd)
}

// stores returns the two residencies, HV first — the order every digest,
// journal diff and audit walk was recorded in. It is the way to walk the
// design; callers hold s.mu.
func (s *System) stores() [2]residency {
	return [2]residency{
		{s.hv.Views, durability.StoreHV, "hv", s.cfg.Tuner.Bh},
		{s.dw.Views, durability.StoreDW, "dw", s.cfg.Tuner.Bd},
	}
}

// storeFor returns the residency a journal tag names.
func (s *System) storeFor(store byte) residency {
	st := s.stores()
	if store == durability.StoreHV {
		return st[0]
	}
	return st[1]
}

// placement is where a view stands in the design and the content it holds
// there, as its stamped checksum.
type placement struct {
	store byte
	sum   uint64
}

// designMap flattens the current design into view name -> placement.
func (s *System) designMap() map[string]placement {
	m := make(map[string]placement, s.hv.Views.Len()+s.dw.Views.Len())
	for _, st := range s.stores() {
		for _, v := range st.views.Members() {
			m[v.Name] = placement{st.store, v.Checksum}
		}
	}
	return m
}

// journalDesignDiff emits evict/admit records for every view whose
// placement changed since jbase, in sorted name order (evicts before
// admits, so a moved view is journaled as evict-from-source then
// admit-to-destination), and advances jbase to the current design. A view
// that stayed in its store under a new stamped checksum — one AppendToLog
// brought forward — is journaled as an admit alone, which carries its new
// content as the payload: replay's admit replaces whatever held the name.
// Rot and Touch keep the stamp, so neither journals anything. A design
// whose versions have not moved since jbase has no diff, and the walk is
// skipped.
func (s *System) journalDesignDiff() error {
	if !s.designMoved() {
		return nil
	}
	ver := s.designVersions()
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
	for _, name := range names {
		old, wasIn := s.jbase[name]
		now, isIn := cur[name]
		if wasIn && (!isIn || old.store != now.store) {
			rec := &durability.Record{Kind: durability.KindViewEvict, Store: old.store, Name: name, Seq: int64(s.seq)}
			if err := s.journal(rec); err != nil {
				return err
			}
		}
		if isIn && (!wasIn || old != now) {
			v, ok := s.storeFor(now.store).views.Get(name)
			if !ok {
				continue
			}
			if err := s.journalAdmit(v, now.store); err != nil {
				return err
			}
		}
	}
	s.jbase, s.jver = cur, ver
	return nil
}

// journalAdmit makes v's bytes durable in the WAL's payload space and
// journals its admission to store.
func (s *System) journalAdmit(v *views.View, store byte) error {
	s.dur.WAL().PutPayload(v)
	return s.journal(&durability.Record{
		Kind: durability.KindViewAdmit, Store: store, Name: v.Name,
		Seq: int64(s.seq), Bytes: v.SizeBytes(), Checksum: v.Checksum,
	})
}

// routeBits packs the report's four route flags the way the journal and
// StateDigest both carry them.
func (r *QueryReport) routeBits() uint64 {
	return uint64(b2i(r.FellBackToHV))*durability.FlagFellBack |
		uint64(b2i(r.Degraded))*durability.FlagDegraded |
		uint64(b2i(r.HVOnly))*durability.FlagHVOnly |
		uint64(b2i(r.BypassedHV))*durability.FlagBypassedHV
}

// queryDoneRecord journals one completed query: sequence, SQL (so replay
// can rebuild the workload window), and its TTI contribution.
func queryDoneRecord(rep *QueryReport) *durability.Record {
	return &durability.Record{
		Kind:            durability.KindQueryDone,
		SQL:             rep.SQL,
		Seq:             int64(rep.Seq),
		Bytes:           rep.TransferBytes,
		HVSeconds:       rep.HVSeconds,
		TransferSeconds: rep.TransferSeconds,
		DWSeconds:       rep.DWSeconds,
		RecoverySeconds: rep.RecoverySeconds,
		Retries:         int64(rep.Retries),
		Flags:           rep.routeBits(),
	}
}

// journaledReport is queryDoneRecord's inverse: the report replay books
// (result data itself is not journaled).
func journaledReport(rec *durability.Record) *QueryReport {
	return &QueryReport{
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
}

// reorgRecord journals the outcome of a committed reorganization
// (KindReorgCommit) or of MS-OFF's realization (KindRealize), and the
// injected failures its moves survived (ReorgRecord does not keep those).
func reorgRecord(kind durability.Kind, rec ReorgRecord, retries int) *durability.Record {
	return &durability.Record{
		Kind:            kind,
		Seq:             int64(rec.BeforeSeq),
		Bytes:           rec.Bytes,
		MovedToDW:       int64(rec.MovedToDW),
		MovedToHV:       int64(rec.MovedToHV),
		Dropped:         int64(rec.Dropped),
		FailedMoves:     int64(rec.FailedMoves),
		RefundedBytes:   rec.RefundedBytes,
		Seconds:         rec.Seconds,
		RecoverySeconds: rec.RecoverySeconds,
		Retries:         int64(retries),
	}
}

// journaledReorg is reorgRecord's inverse (the retries stay in the record).
func journaledReorg(rec *durability.Record) ReorgRecord {
	return ReorgRecord{
		BeforeSeq:       int(rec.Seq),
		MovedToDW:       int(rec.MovedToDW),
		MovedToHV:       int(rec.MovedToHV),
		Dropped:         int(rec.Dropped),
		Bytes:           rec.Bytes,
		Seconds:         rec.Seconds,
		FailedMoves:     int(rec.FailedMoves),
		RefundedBytes:   rec.RefundedBytes,
		RecoverySeconds: rec.RecoverySeconds,
	}
}

// snapshot is the checkpoint state: an image of everything a restart
// needs — design and view metadata, budgets travel in Config, sliding
// workload window, TTI accounting, variant progress flags, reorg history,
// and the report log (retained reports, evicted count and fold). Booked
// reports and views are shared: nothing writes them after they are built
// (a view's later recency or rot is a new struct in the live set).
type snapshot struct {
	Variant  Variant
	Seq      int
	Metrics  Metrics
	EtlDone  bool
	OffTuned bool
	OffHV    []string
	OffDW    []string
	// Views holds each store's views, indexed as stores() orders them.
	Views    [2][]*views.View
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

// snapshotLocked images the system state. Callers hold s.mu.
func (s *System) snapshotLocked() *snapshot {
	sn := &snapshot{
		Variant:  s.cfg.Variant,
		Seq:      s.seq,
		Metrics:  s.metrics,
		EtlDone:  s.etlDone,
		OffTuned: s.offTuned,
		ReorgLog: append([]ReorgRecord(nil), s.reorgLog...),
	}
	sn.OffHV, sn.OffDW = sortedKeys(s.offTargetHV), sortedKeys(s.offTargetDW)
	for i, st := range s.stores() {
		sn.Views[i] = st.views.All()
	}
	for _, e := range s.window.Entries() {
		sn.Window = append(sn.Window, snapEntry{Seq: e.Seq, SQL: e.SQL})
	}
	for _, e := range s.future {
		sn.Future = append(sn.Future, snapEntry{Seq: e.Seq, SQL: e.SQL})
	}
	s.reports.each(func(r *QueryReport) { sn.Reports = append(sn.Reports, r) })
	sn.Evicted, sn.EvictedFold = s.reports.evicted, s.reports.fold
	return sn
}

// restoreSnapshot installs a checkpoint image into a freshly constructed
// system, sharing its views: the recovered system's sets replace a view
// rather than write it, so nothing reaches the checkpoint.
func (s *System) restoreSnapshot(sn *snapshot) error {
	s.seq = sn.Seq
	s.nextSeq.Store(int64(s.seq))
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
	for i, st := range s.stores() {
		for _, v := range sn.Views[i] {
			s.installView(v, st.views)
		}
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
	if s.offTuned {
		if err := s.analyze(hv.NewStore(s.cat, s.est, s.cfg.ExecWorkers)); err != nil {
			return err
		}
	}
	s.reports = reportLog{evicted: sn.Evicted, fold: sn.EvictedFold}
	for _, r := range sn.Reports {
		s.reports.add(r)
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
		if v.Def != nil {
			s.est.Record(v.Def, st)
		}
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
	d.w(r.routeBits())
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
	for _, st := range s.stores() {
		ws(st.tag)
		for _, v := range st.views.All() {
			ws(v.Name)
			ws(v.Sig)
			w(v.Checksum, uint64(v.CreatedSeq), uint64(v.LastUsedSeq), uint64(v.SizeBytes()))
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
