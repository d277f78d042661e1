package multistore

// White-box tests for the online integrity plane: the self-healing
// repair path, the quarantine tombstones that keep an evicted name from
// resurrecting through opportunistic capture or MS-LRU retention, the
// system-invariant audit, and the audit-disabled byte-identity
// guarantee. These need direct access to the stores' view sets to plant
// corruption, so they live inside the package.

import (
	"fmt"
	"reflect"
	"testing"

	"miso/internal/data"
	"miso/internal/durability"
	"miso/internal/views"
	"miso/internal/workload"
)

func newAuditSystem(t *testing.T, v Variant, mutate func(*Config)) *System {
	t.Helper()
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	cfg := DefaultConfig(v)
	cfg.SetBudgets(cat, 2.0, 10<<30)
	if mutate != nil {
		mutate(&cfg)
	}
	sys := New(cfg, cat)
	if err := sys.ProvideFutureWorkload(workload.SQLs()); err != nil {
		t.Fatalf("future workload: %v", err)
	}
	return sys
}

func runPrefix(t *testing.T, sys *System, n int) {
	t.Helper()
	sqls := workload.SQLs()
	if n > len(sqls) {
		n = len(sqls)
	}
	for i := 0; i < n; i++ {
		if _, err := sys.Run(sqls[i]); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
}

// pickRecomputable returns a resident view the repair path can recompute
// from base data, and the set it lives in.
func pickRecomputable(sys *System) (*views.View, *views.Set) {
	sys.mu.Lock()
	defer sys.mu.Unlock()
	for _, st := range sys.stores() {
		for _, v := range st.views.All() {
			if v.Def != nil && v.Name == views.NameForSig(v.Sig) &&
				v.Table != nil && len(v.Table.Rows) > 0 {
				return v, st.views
			}
		}
	}
	return nil, nil
}

// TestAuditRepairsCorruptView corrupts a resident recomputable view the
// way SiteViewRot does and checks that a repair-mode audit pass detects
// the checksum mismatch, recomputes the view through the HV fallback
// path (charged to RECOVERY), and leaves a verifying copy under the same
// name in the same store.
func TestAuditRepairsCorruptView(t *testing.T) {
	sys := newAuditSystem(t, VariantMSMiso, nil)
	runPrefix(t, sys, 6)

	victim, set := pickRecomputable(sys)
	if victim == nil {
		t.Fatal("no recomputable view materialized")
	}
	rotted := *victim
	rotted.Table = victim.Table.Clone()
	durability.CorruptTable(rotted.Table, 0.5)
	set.Add(&rotted)
	if rotted.Verify() {
		t.Fatal("rot did not break the content checksum")
	}
	recoveryBefore := sys.Metrics().Recovery

	viols, next, err := sys.AuditViews("", 0, true)
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	if next != "" {
		t.Fatalf("full walk did not wrap (next %q)", next)
	}
	var found bool
	for _, v := range viols {
		if v.View == victim.Name {
			found = true
			if v.Invariant != InvChecksum {
				t.Fatalf("violation family %q, want %q", v.Invariant, InvChecksum)
			}
			if !v.Repaired || v.Quarantined {
				t.Fatalf("view not repaired: %+v", v)
			}
		}
	}
	if !found {
		t.Fatalf("corrupt view %s not detected in %v", victim.Name, viols)
	}

	repaired, ok := set.Get(victim.Name)
	if !ok {
		t.Fatalf("repaired view %s missing from its store", victim.Name)
	}
	if !repaired.Verify() {
		t.Fatalf("repaired view %s still fails verification", victim.Name)
	}
	if got := sys.Metrics(); got.Recovery <= recoveryBefore {
		t.Fatalf("repair charged no recovery time (%.3f -> %.3f)", recoveryBefore, got.Recovery)
	} else if got.AuditViolations == 0 || got.AuditRepaired == 0 {
		t.Fatalf("audit counters not bumped: %+v", got)
	}

	clean, _, err := sys.AuditViews("", 0, true)
	if err != nil {
		t.Fatalf("second audit: %v", err)
	}
	if len(clean) != 0 {
		t.Fatalf("second pass still dirty: %v", clean)
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatalf("invariants after repair: %v", err)
	}
}

// TestQuarantineTombstoneBlocksCapture is the resurrection regression:
// once a view name is quarantined out of the design, replaying the very
// queries that created it must not resurrect the name through
// opportunistic capture until a reorganization rebuilds the design and
// clears the tombstones.
func TestQuarantineTombstoneBlocksCapture(t *testing.T) {
	sys := newAuditSystem(t, VariantMSMiso, func(c *Config) { c.ReorgEvery = 0 })
	runPrefix(t, sys, 5)

	sys.mu.Lock()
	for _, st := range sys.stores() {
		for _, v := range st.views.All() {
			sys.quarantineView(v.Name, st.views)
		}
	}
	sys.mu.Unlock()
	tombs := sys.QuarantineTombstones()
	if len(tombs) == 0 {
		t.Fatal("nothing was quarantined; workload produced no views")
	}

	runPrefix(t, sys, 5)
	for _, name := range tombs {
		if sys.hv.Views.Has(name) || sys.dw.Views.Has(name) {
			t.Fatalf("quarantined view %s resurrected by opportunistic capture", name)
		}
	}

	if err := sys.Reorganize(); err != nil {
		t.Fatalf("reorganize: %v", err)
	}
	if left := sys.QuarantineTombstones(); len(left) != 0 {
		t.Fatalf("tombstones survived reorganization: %v", left)
	}
	runPrefix(t, sys, 5)
	if sys.hv.Views.Len()+sys.dw.Views.Len() == 0 {
		t.Fatal("capture still blocked after reorganization cleared the tombstones")
	}
}

// TestEvictThenQuarantineNoLRURetention covers the EvictLRU/quarantine
// interaction under MS-LRU: a name evicted under budget pressure and
// then quarantined must not be resurrected by the variant's passive
// retention when the same query transfers the same working set again.
func TestEvictThenQuarantineNoLRURetention(t *testing.T) {
	sys := newAuditSystem(t, VariantMSLru, nil)
	runPrefix(t, sys, 4)

	sys.mu.Lock()
	retained := sys.dw.Views.All()
	if len(retained) == 0 {
		sys.mu.Unlock()
		t.Skip("MS-LRU retained nothing on this prefix")
	}
	var names []string
	views.EvictLRU(sys.dw.Views, 0)
	for _, v := range retained {
		sys.quarantineView(v.Name, sys.dw.Views)
		names = append(names, v.Name)
	}
	sys.mu.Unlock()

	runPrefix(t, sys, 4)
	for _, name := range names {
		if sys.dw.Views.Has(name) {
			t.Fatalf("evicted-then-quarantined view %s resurrected by MS-LRU retention", name)
		}
	}
}

// TestAuditInvariantsRepairsDisjointness plants a Vh ∩ Vd breach and
// checks the invariant audit detects it and heals it by evicting the HV
// copy (DW placement wins), converging to a clean second pass.
func TestAuditInvariantsRepairsDisjointness(t *testing.T) {
	sys := newAuditSystem(t, VariantMSMiso, nil)
	runPrefix(t, sys, 6)

	sys.mu.Lock()
	all := sys.hv.Views.All()
	if len(all) == 0 {
		sys.mu.Unlock()
		t.Fatal("no HV views materialized")
	}
	planted := all[0]
	sys.dw.Views.Add(planted)
	sys.mu.Unlock()

	viols, err := sys.AuditInvariants(true)
	if err != nil {
		t.Fatalf("audit: %v", err)
	}
	var found bool
	for _, v := range viols {
		if v.Invariant == InvDisjoint && v.View == planted.Name {
			found = true
			if !v.Repaired {
				t.Fatalf("disjointness breach not repaired: %+v", v)
			}
		}
	}
	if !found {
		t.Fatalf("planted disjointness breach on %s not detected: %v", planted.Name, viols)
	}
	if sys.hv.Views.Has(planted.Name) {
		t.Fatal("HV copy survived the disjointness repair")
	}
	if !sys.dw.Views.Has(planted.Name) {
		t.Fatal("DW copy was evicted; the repair must keep the DW placement")
	}
	clean, err := sys.AuditInvariants(true)
	if err != nil {
		t.Fatalf("second audit: %v", err)
	}
	if len(clean) != 0 {
		t.Fatalf("second pass still dirty: %v", clean)
	}
}

// TestPlantedInvariantBreachesAreReportedBothWays plants each of the five
// system-invariant breaches, one at a time, and checks that CheckInvariants
// (which returns the first) and AuditInvariants(false) (which lists them)
// both report it, each in its own wording — the two are one walk now, and
// neither's messages may drift.
func TestPlantedInvariantBreachesAreReportedBothWays(t *testing.T) {
	sys := newAuditSystem(t, VariantMSMiso, nil)
	runPrefix(t, sys, 6)
	if err := sys.CheckInvariants(); err != nil {
		t.Fatalf("dirty before planting: %v", err)
	}
	hvViews := sys.hv.Views.All()
	if len(hvViews) == 0 {
		t.Fatal("no HV views materialized")
	}
	dup := hvViews[0]
	hvBytes, dwBytes := sys.hv.Views.TotalBytes(), sys.dw.Views.TotalBytes()
	bh, bd, bt := sys.cfg.Tuner.Bh, sys.cfg.Tuner.Bd, sys.cfg.Tuner.Bt
	queries, tune := sys.metrics.Queries, sys.metrics.Tune

	for _, c := range []struct {
		name        string
		plant, undo func()
		check       string
		audit       AuditViolation
	}{
		{"disjointness",
			func() { sys.dw.Views.Add(dup) }, func() { sys.dw.Views.Remove(dup.Name) },
			fmt.Sprintf("multistore: view %q present in both HV and DW", dup.Name),
			AuditViolation{Invariant: InvDisjoint, View: dup.Name, Store: "hv", Detail: "view resident in both stores"}},
		{"HV storage budget",
			func() { sys.cfg.Tuner.Bh = 1 }, func() { sys.cfg.Tuner.Bh = bh },
			fmt.Sprintf("multistore: HV views %d bytes exceed Bh 1", hvBytes),
			AuditViolation{Invariant: InvBudget, Store: "hv", Detail: fmt.Sprintf("hv views %d bytes exceed budget 1", hvBytes)}},
		{"DW storage budget",
			func() { sys.cfg.Tuner.Bd = -1 }, func() { sys.cfg.Tuner.Bd = bd },
			fmt.Sprintf("multistore: DW views %d bytes exceed Bd -1", dwBytes),
			AuditViolation{Invariant: InvBudget, Store: "dw", Detail: fmt.Sprintf("dw views %d bytes exceed budget -1", dwBytes)}},
		{"negative ledger bytes",
			func() { sys.reorgLog = append(sys.reorgLog, ReorgRecord{BeforeSeq: 7, RefundedBytes: -1}) },
			func() { sys.reorgLog = sys.reorgLog[:len(sys.reorgLog)-1] },
			"multistore: reorg before query 7 has negative byte accounting",
			AuditViolation{Invariant: InvBudget, Detail: "reorg before query 7 has negative byte accounting"}},
		{"transfer budget",
			func() { sys.reorgLog = append(sys.reorgLog, ReorgRecord{BeforeSeq: 8, Bytes: bt + 1}) },
			func() { sys.reorgLog = sys.reorgLog[:len(sys.reorgLog)-1] },
			fmt.Sprintf("multistore: reorg before query 8 moved %d bytes, transfer budget %d", bt+1, bt),
			AuditViolation{Invariant: InvBudget, Detail: fmt.Sprintf("reorg before query 8 moved %d bytes over transfer budget %d", bt+1, bt)}},
		{"negative TTI component",
			func() { sys.metrics.Tune = -2.5 }, func() { sys.metrics.Tune = tune },
			"multistore: negative Tune component -2.500000",
			AuditViolation{Invariant: InvAccounting, Detail: "negative Tune component -2.500000"}},
		{"query count",
			func() { sys.metrics.Queries++ }, func() { sys.metrics.Queries-- },
			fmt.Sprintf("multistore: %d queries counted but %d reports", queries+1, queries),
			AuditViolation{Invariant: InvAccounting, Detail: fmt.Sprintf("%d queries counted but %d reports", queries+1, queries)}},
	} {
		c.plant()
		err := sys.CheckInvariants()
		viols, aerr := sys.AuditInvariants(false)
		c.undo()
		if aerr != nil {
			t.Fatalf("%s: audit: %v", c.name, aerr)
		}
		if len(viols) != 1 {
			t.Fatalf("%s: audit reported %d violations, want the planted one: %v", c.name, len(viols), viols)
		}
		if err == nil || err.Error() != c.check {
			t.Errorf("%s: CheckInvariants = %v, want %q", c.name, err, c.check)
		}
		if viols[0] != c.audit {
			t.Errorf("%s: AuditInvariants = %+v, want %+v", c.name, viols[0], c.audit)
		}
	}
	if err := sys.CheckInvariants(); err != nil {
		t.Fatalf("dirty after undoing every plant: %v", err)
	}
}

// TestFailedTuneClosesItsReorgWindow: a reorganization whose tuning fails
// (here a hand-installed view with no descriptor panics inside the what-if
// costing, which the tuner contains) leaves a live process behind, so the
// window it opened in the journal must be closed with an abort. Otherwise
// recovery takes every admit journaled after it for part of that window
// and drops it, and the audit reports a window left open.
func TestFailedTuneClosesItsReorgWindow(t *testing.T) {
	sys := newAuditSystem(t, VariantMSMiso, func(c *Config) { c.CheckpointEvery = 100 })
	boot := sys.Durability().Latest()
	runPrefix(t, sys, 1)
	sys.hv.Views.Add(&views.View{Name: "no_descriptor", Sig: "no_descriptor"})
	if err := sys.Reorganize(); err == nil {
		t.Fatal("tuning over a view with no descriptor succeeded; the test exercises nothing")
	}
	sys.hv.Views.Remove("no_descriptor")
	sqls := workload.SQLs()
	for _, sql := range sqls[1:3] {
		if _, err := sys.Run(sql); err != nil {
			t.Fatal(err)
		}
	}
	viols, err := sys.AuditInvariants(false)
	if err != nil || len(viols) != 0 {
		t.Errorf("audit after the failed tuning: %v %v", viols, err)
	}
	rec, rep, err := Recover(sys.cfg, sys.cat, boot, sys.dur.WAL())
	if err != nil {
		t.Fatal(err)
	}
	if rep.RolledBackReorgs != 0 {
		t.Errorf("recovery rolled back %d reorganizations; the aborted one was closed live", rep.RolledBackReorgs)
	}
	live := sys.designMap()
	if len(live) == 0 {
		t.Fatal("the queries admitted no views; nothing to find")
	}
	if got := rec.designMap(); !reflect.DeepEqual(got, live) {
		t.Errorf("recovered design %v, live design %v", got, live)
	}
}

// TestStoresWalksHVFirst pins the order of the one walk over the two
// stores: StateDigest, designMap (where a name in both stores resolves to
// DW) and the audit walk were all recorded HV first.
func TestStoresWalksHVFirst(t *testing.T) {
	sys := newAuditSystem(t, VariantMSMiso, nil)
	want := [2]residency{
		{sys.hv.Views, durability.StoreHV, "hv", sys.cfg.Tuner.Bh},
		{sys.dw.Views, durability.StoreDW, "dw", sys.cfg.Tuner.Bd},
	}
	if got := sys.stores(); got != want {
		t.Fatalf("stores() = %+v, want HV then DW: %+v", got, want)
	}
	if sys.storeFor(durability.StoreHV) != want[0] || sys.storeFor(durability.StoreDW) != want[1] {
		t.Fatal("storeFor does not resolve the journal's tags to their stores")
	}
}
