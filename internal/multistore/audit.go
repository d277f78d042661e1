package multistore

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"miso/internal/durability"
	"miso/internal/faults"
	"miso/internal/views"
)

// This file is the multistore side of the online integrity plane: the
// chunked per-view audit the background scrubber drives (internal/audit),
// the atomic system-invariant audit, the self-healing repair path, the
// quarantine tombstones that stop a quarantined name from resurrecting
// through opportunistic capture, and the SiteViewRot bit-rot hook.
//
// Every audit entry point takes s.mu, so one chunk observes the design
// either entirely before or entirely after any concurrent query or
// reorganization — never a torn mix. With no scrubber attached nothing
// here runs, no tombstone is allocated, and zero-rate rot draws no
// randomness, so audit-disabled runs stay byte-identical to a system with
// no audit plane at all.

// Audit invariant families (AuditViolation.Invariant).
const (
	// InvChecksum is a per-view FNV-64 content checksum mismatch against
	// the catalog's stamped value.
	InvChecksum = "checksum"
	// InvDisjoint is a violation of Vh ∩ Vd = ∅.
	InvDisjoint = "disjointness"
	// InvBudget is a storage- or transfer-budget conservation failure
	// (Bh/Bd overflow, or a reorg ledger entry outside [0, Bt] / negative
	// refunds).
	InvBudget = "budget"
	// InvAccounting is a negative TTI component or a query/report count
	// mismatch.
	InvAccounting = "accounting"
	// InvWAL is a WAL/state consistency failure: a torn tail, an open
	// reorganization window at an operation boundary, a durable view
	// payload that no longer matches its admit record, or a live placement
	// that contradicts the committed journal.
	InvWAL = "wal"
)

// AuditViolation is one detected integrity violation.
type AuditViolation struct {
	// Invariant is the violated family (Inv* constants).
	Invariant string
	// View names the offending view; empty for system-wide invariants.
	View string
	// Store tags where the view lived ("hv" or "dw"); empty otherwise.
	Store string
	// Detail describes the violation.
	Detail string
	// Repaired reports that the violation was self-healed online —
	// recomputed through the HV fallback path, re-journaled, or evicted
	// back under budget.
	Repaired bool
	// Quarantined reports that the view was removed from the design (and
	// tombstoned) because it could not be repaired.
	Quarantined bool
}

func (v AuditViolation) String() string {
	state := "detected"
	switch {
	case v.Repaired:
		state = "repaired"
	case v.Quarantined:
		state = "quarantined"
	}
	if v.View == "" {
		return fmt.Sprintf("%s: %s (%s)", v.Invariant, v.Detail, state)
	}
	return fmt.Sprintf("%s: view %s in %s: %s (%s)", v.Invariant, v.View, v.Store, v.Detail, state)
}

// AuditViews incrementally verifies the per-view invariant — the content
// checksum — over both stores' catalogs in sorted name order, resuming
// after cursor ("" starts a pass) and checking at most max views per call
// (<= 0 checks all). With repair set, a failing view is self-healed by
// recomputing its definition through the HV engine (the existing fallback
// path) with the estimated HV cost charged to RECOVERY; a view that cannot be recomputed is quarantined out of the
// design and tombstoned so opportunistic capture cannot resurrect the
// name before the next reorganization. The next cursor is "" once the
// walk has wrapped. The error return is reserved for a torn WAL append
// while journaling a repair (the process is then considered dead, as for
// any other torn append).
func (s *System) AuditViews(cursor string, max int, repair bool) ([]AuditViolation, string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()

	names := sortedKeys(s.designMap())
	var (
		viols       []AuditViolation
		next        string
		checked     int
		quarantined bool
	)
	for _, name := range names {
		if name <= cursor {
			continue
		}
		if max > 0 && checked >= max {
			next = cursor
			break
		}
		checked++
		cursor = name
		for _, st := range s.stores() {
			v, ok := st.views.Get(name)
			if !ok {
				continue
			}
			if v.Verify() {
				continue
			}
			viol := AuditViolation{Invariant: InvChecksum, View: name, Store: st.tag, Detail: "content checksum mismatch"}
			s.metrics.AuditViolations++
			if repair {
				rerr := s.repairView(v, st)
				switch {
				case rerr == nil:
					viol.Repaired = true
					s.metrics.AuditRepaired++
				case errors.Is(rerr, faults.ErrCrash):
					return append(viols, viol), cursor, rerr
				default:
					s.quarantineView(name, st.views)
					quarantined = true
					viol.Quarantined = true
					viol.Detail += "; " + rerr.Error()
					s.metrics.AuditUnrepaired++
				}
			}
			viols = append(viols, viol)
		}
	}
	if quarantined && s.dur != nil {
		// Quarantine is a placement change: persist the evictions now so a
		// crash cannot resurrect a quarantined view from the journal.
		if err := s.journalDesignDiff(); err != nil {
			return viols, next, err
		}
	}
	return viols, next, nil
}

// brokenInvariants is the one walk over the system invariants: Vh ∩ Vd
// disjointness, the storage budgets, transfer-budget conservation over the
// reorganization ledger, non-negative TTI components, and the query counter
// against the report log. Each breach is yielded as the audit's violation
// and in CheckInvariants' wording, in that order of checks; yield returns
// false to stop the walk. The walk is lazy: a yield that repairs a breach
// (AuditInvariants evicting a duplicate) is seen by the checks after it.
// Callers hold s.mu.
func (s *System) brokenInvariants(yield func(v AuditViolation, msg string) bool) {
	for _, v := range s.hv.Views.All() {
		if !s.dw.Views.Has(v.Name) {
			continue
		}
		if !yield(AuditViolation{Invariant: InvDisjoint, View: v.Name, Store: "hv", Detail: "view resident in both stores"},
			fmt.Sprintf("view %q present in both HV and DW", v.Name)) {
			return
		}
	}
	for _, st := range s.stores() {
		got := st.views.TotalBytes()
		if got <= st.budget {
			continue
		}
		// CheckInvariants names the store in capitals and its budget Bh / Bd.
		if !yield(AuditViolation{Invariant: InvBudget, Store: st.tag,
			Detail: fmt.Sprintf("%s views %d bytes exceed budget %d", st.tag, got, st.budget)},
			fmt.Sprintf("%s views %d bytes exceed B%s %d", strings.ToUpper(st.tag), got, st.tag[:1], st.budget)) {
			return
		}
	}
	for _, rec := range s.reorgLog {
		var detail, msg string
		switch {
		case rec.Bytes < 0 || rec.RefundedBytes < 0:
			detail = fmt.Sprintf("reorg before query %d has negative byte accounting", rec.BeforeSeq)
			msg = detail
		case rec.Bytes > s.cfg.Tuner.Bt:
			detail = fmt.Sprintf("reorg before query %d moved %d bytes over transfer budget %d", rec.BeforeSeq, rec.Bytes, s.cfg.Tuner.Bt)
			msg = fmt.Sprintf("reorg before query %d moved %d bytes, transfer budget %d", rec.BeforeSeq, rec.Bytes, s.cfg.Tuner.Bt)
		default:
			continue
		}
		if !yield(AuditViolation{Invariant: InvBudget, Detail: detail}, msg) {
			return
		}
	}
	m := s.metrics
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"HVExe", m.HVExe}, {"DWExe", m.DWExe}, {"Transfer", m.Transfer},
		{"Tune", m.Tune}, {"ETL", m.ETL}, {"Recovery", m.Recovery},
	} {
		if c.v < 0 {
			detail := fmt.Sprintf("negative %s component %f", c.name, c.v)
			if !yield(AuditViolation{Invariant: InvAccounting, Detail: detail}, detail) {
				return
			}
		}
	}
	if n := s.reports.total(); m.Queries != n {
		detail := fmt.Sprintf("%d queries counted but %d reports", m.Queries, n)
		yield(AuditViolation{Invariant: InvAccounting, Detail: detail}, detail)
	}
}

// AuditInvariants verifies the system-wide invariants in one atomic
// critical section: the five brokenInvariants walks, then WAL/state
// consistency. With repair set, a disjointness breach is healed by evicting
// the HV copy (the DW placement wins, matching the capture veto's
// semantics), a storage-budget overflow by LRU eviction back under budget,
// and a mismatched durable view payload by re-journaling the verified live
// copy; ledger and accounting violations are report-only. The error
// return is reserved for a torn WAL append while journaling a repair.
func (s *System) AuditInvariants(repair bool) ([]AuditViolation, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var viols []AuditViolation
	add := func(v AuditViolation) {
		s.metrics.AuditViolations++
		if v.Repaired {
			s.metrics.AuditRepaired++
		} else {
			s.metrics.AuditUnrepaired++
		}
		viols = append(viols, v)
	}

	changed := false
	s.brokenInvariants(func(v AuditViolation, _ string) bool {
		if repair && v.Invariant == InvDisjoint {
			s.hv.Views.Remove(v.View)
			changed = true
			v.Repaired = true
			v.Detail += "; evicted HV copy, DW placement wins"
		}
		for _, st := range s.stores() {
			// A storage budget's breach carries its store's tag; the ledger's none.
			if repair && v.Invariant == InvBudget && v.Store == st.tag {
				evicted := views.EvictLRU(st.views, st.budget)
				changed = changed || len(evicted) > 0
				v.Repaired = true
				v.Detail += fmt.Sprintf("; evicted %d views back under budget", len(evicted))
			}
		}
		add(v)
		return true
	})

	// WAL/state consistency.
	if s.dur != nil {
		wviols, err := s.auditWAL(repair)
		for _, v := range wviols {
			add(v)
		}
		if err != nil {
			return viols, err
		}
	}

	if changed && s.dur != nil {
		if err := s.journalDesignDiff(); err != nil {
			return viols, err
		}
	}
	return viols, nil
}

// auditWAL checks the journal against the live state: no torn tail past
// the latest checkpoint, no reorganization window left open at an
// operation boundary, every still-placed view's durable payload matching
// its last admit record, and — for views present in both the committed
// journal placement and the live design — agreeing store placement.
// Views present only on one side are legitimate (uncommitted captures
// are never journaled; quarantined views are evicted from the journal at
// the next boundary), so they raise nothing. Callers hold s.mu.
func (s *System) auditWAL(repair bool) ([]AuditViolation, error) {
	var viols []AuditViolation
	wal := s.dur.WAL()
	lsn := 0
	place := map[string]byte{}
	if ckpt := s.dur.Latest(); ckpt != nil {
		lsn = ckpt.LSN
		if sn, ok := ckpt.State.(*snapshot); ok {
			for i, st := range s.stores() {
				for _, v := range sn.Views[i] {
					place[v.Name] = st.store
				}
			}
		}
	}
	recs, torn := wal.Replay(lsn)
	if torn > 0 {
		viols = append(viols, AuditViolation{Invariant: InvWAL,
			Detail: fmt.Sprintf("torn WAL tail of %d bytes past the last checkpoint", torn)})
	}

	lastAdmit := map[string]*durability.Record{}
	d := durability.Fold(recs)
	for _, rec := range d.Applied {
		switch rec.Kind {
		case durability.KindViewAdmit:
			place[rec.Name] = rec.Store
			lastAdmit[rec.Name] = rec
		case durability.KindViewEvict:
			if place[rec.Name] == rec.Store {
				delete(place, rec.Name)
			}
		}
	}
	if d.OpenReorg {
		viols = append(viols, AuditViolation{Invariant: InvWAL,
			Detail: "reorganization window left open at an operation boundary"})
	}

	// Durable payload integrity for every still-placed admitted view.
	names := make([]string, 0, len(lastAdmit))
	for name := range lastAdmit {
		if _, ok := place[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		rec := lastAdmit[name]
		p, ok := wal.Payload(name)
		if ok && p.Verify() && p.Checksum == rec.Checksum {
			continue
		}
		viol := AuditViolation{Invariant: InvWAL, View: name,
			Detail: "durable payload fails its admit-record checksum"}
		if repair {
			// Self-heal the durable copy from the verified live view.
			if live, ok := s.storeFor(place[name]).views.Get(name); ok && live.Verify() {
				if err := s.journalAdmit(live, place[name]); err != nil {
					return append(viols, viol), err
				}
				viol.Repaired = true
				viol.Detail += "; re-journaled from the live copy"
			}
		}
		viols = append(viols, viol)
	}

	// Placement agreement on the intersection of journal and live design.
	live := s.designMap()
	for _, name := range sortedKeys(live) {
		if st, ok := place[name]; ok && st != live[name].store {
			viols = append(viols, AuditViolation{Invariant: InvWAL, View: name,
				Detail: fmt.Sprintf("journal places view in %c, live design in %c", st, live[name].store)})
		}
	}
	return viols, nil
}

// repairView self-heals one corrupt view in place: its base-data
// definition is recomputed through the HV engine — the same path an HV
// fallback takes, with no injector draws and no store mutation until the
// verified result is reinstalled — and the result is reinstalled under the
// same name in the same store. The estimated HV cost of the recomputation is charged to RECOVERY. The
// repair is journaled as an evict+admit pair (the placement did not
// change, so the boundary design diff would not notice a content
// repair). Callers hold s.mu.
func (s *System) repairView(v *views.View, st residency) error {
	if v.Def == nil || v.Name != views.NameForSig(v.Sig) {
		// Hand-installed tables (the bgwork mart) are not recomputable
		// through the HV fallback path: their name is not derived from
		// their signature, so a recomputation would install a stranger.
		return fmt.Errorf("multistore: view %s is not recomputable from base data", v.Name)
	}
	cost := s.hv.CostPlan(v.Def)
	p, err := s.hv.BeginExecute(context.Background(), v.Def)
	if err != nil {
		return fmt.Errorf("multistore: recomputing view %s: %w", v.Name, err)
	}
	nv := views.New(v.Def, p.Table(), v.CreatedSeq)
	if nv.Name != v.Name {
		return fmt.Errorf("multistore: view %s definition drifted (recomputed name %s)", v.Name, nv.Name)
	}
	nv.LastUsedSeq = v.LastUsedSeq
	st.views.Remove(v.Name)
	s.installView(nv, st.views)
	delete(s.tomb, v.Name)
	s.metrics.Recovery += cost
	if s.dur == nil {
		return nil
	}
	if err := s.journal(&durability.Record{
		Kind: durability.KindViewEvict, Store: st.store, Name: v.Name, Seq: int64(s.seq),
	}); err != nil {
		return err
	}
	return s.journalAdmit(nv, st.store)
}

// quarantineView removes an unrepairable view from the design and
// tombstones its name so opportunistic capture (hv.Commit's by-product
// publication, MS-LRU's passive retention) cannot resurrect it before
// the next reorganization rebuilds the design. Callers hold s.mu.
func (s *System) quarantineView(name string, set *views.Set) {
	set.Remove(name)
	if s.tomb == nil {
		s.tomb = map[string]bool{}
	}
	s.tomb[name] = true
	s.metrics.Quarantined++
	// The quarantined view's bytes may back result views computed while
	// it was live: drop every one.
	s.invalidateReuse()
}

// tombstoned reports whether the name is quarantine-tombstoned. Called
// from the capture veto and MS-LRU retention, both on the serialized
// query flow under s.mu.
func (s *System) tombstoned(name string) bool { return s.tomb[name] }

// QuarantineTombstones returns the currently tombstoned view names in
// sorted order (empty between reorganizations when nothing was
// quarantined online).
func (s *System) QuarantineTombstones() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return sortedKeys(s.tomb)
}

// maybeRot draws the SiteViewRot bit-rot site once per operation: when it
// fires, one resident recomputable view is silently replaced, through its
// set, by a copy whose table has a single value flipped (size-preserving)
// and whose catalog checksum is left stale — damage no query path notices
// until a checksum audit re-verifies it; the original, shared with
// checkpoints and payloads, stays intact. Victim choice is deterministic in
// the draw's fraction over the sorted resident view names. A zero rate draws
// no randomness. Callers hold s.mu.
func (s *System) maybeRot() {
	failed, frac := s.inj.Check(faults.SiteViewRot)
	if !failed {
		return
	}
	var victims []*views.View
	var sets []*views.Set // each victim's
	for _, st := range s.stores() {
		for _, v := range st.views.All() {
			if v.Table != nil && len(v.Table.Rows) > 0 && v.Name == views.NameForSig(v.Sig) {
				victims = append(victims, v)
				sets = append(sets, st.views)
			}
		}
	}
	if len(victims) == 0 {
		return
	}
	idx := min(int(frac*float64(len(victims))), len(victims)-1)
	rotted := *victims[idx]
	rotted.Table = rotted.Table.Clone()
	durability.CorruptTable(rotted.Table, frac)
	sets[idx].Add(&rotted)
	s.rotLog = append(s.rotLog, RotRecord{Name: rotted.Name, CreatedSeq: rotted.CreatedSeq})
}

// RotRecord identifies one copy of a view corrupted by SiteViewRot. Names
// derive from signatures, so a view dropped by a reorganization and later
// re-captured carries the same name; CreatedSeq tells the copies apart
// (an in-place repair keeps it).
type RotRecord struct {
	Name       string
	CreatedSeq int
}

// RotLog returns the view copies corrupted by SiteViewRot so far, in
// injection order (a copy may repeat). The endurance harness checks that
// every rotted copy was later repaired or left the design.
func (s *System) RotLog() []RotRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]RotRecord(nil), s.rotLog...)
}
