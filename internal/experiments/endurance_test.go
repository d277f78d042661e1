package experiments

import (
	"testing"

	"miso/internal/faults"
	"miso/internal/multistore"
	"miso/internal/views"
	"miso/internal/workload"
)

// rotOneView runs queries on a system with SiteViewRot always firing until
// exactly one view copy has been rotted, and returns the system, the rot
// record, and the set holding the victim. No reorganization runs, so the
// victim stays where it was rotted.
func rotOneView(t *testing.T) (*multistore.System, multistore.RotRecord, *views.Set) {
	t.Helper()
	sys, err := Small().newSystem(multistore.VariantMSMiso, func(mc *multistore.Config) {
		mc.Faults = faults.Profile{}.With(faults.SiteViewRot, 1)
		mc.FaultSeed = 11
		mc.ReorgEvery = 0
	})
	if err != nil {
		t.Fatal(err)
	}
	// The draw happens as a query starts: the first finds no resident
	// view, the second rots one the first left behind.
	for _, sql := range workload.SQLs()[:2] {
		if _, err := sys.Run(sql); err != nil {
			t.Fatal(err)
		}
	}
	log := sys.RotLog()
	if len(log) != 1 {
		t.Fatalf("rot log has %d records, want 1: %v", len(log), log)
	}
	for _, set := range []*views.Set{sys.HV().Views, sys.DW().Views} {
		if v, ok := set.Get(log[0].Name); ok {
			if v.Verify() {
				t.Fatalf("victim %s verifies clean; nothing was rotted", v.Name)
			}
			return sys, log[0], set
		}
	}
	t.Fatalf("rotted view %s is not resident", log[0].Name)
	return nil, multistore.RotRecord{}, nil
}

// TestRotAccountingIgnoresARecapturedName: the rotted copy is dropped (as
// a reorganization drops it) and a later query re-captures the same
// signature-derived name. The resident view is a different copy; the rot
// left the design with the old one.
func TestRotAccountingIgnoresARecapturedName(t *testing.T) {
	sys, rot, set := rotOneView(t)
	victim, _ := set.Get(rot.Name)
	set.Remove(rot.Name)
	recaptured := views.New(victim.Def, victim.Table, victim.CreatedSeq+5)
	if recaptured.Name != rot.Name {
		t.Fatalf("re-captured view is named %s, want %s", recaptured.Name, rot.Name)
	}
	set.Add(recaptured)
	if distinct, unaccounted := unaccountedRot(sys, nil); distinct != 1 || unaccounted != 0 {
		t.Fatalf("distinct %d unaccounted %d, want 1 and 0", distinct, unaccounted)
	}
}

// TestRotAccountingCountsTheResidentRottedCopy: the rotted copy is still
// resident and nothing repaired it.
func TestRotAccountingCountsTheResidentRottedCopy(t *testing.T) {
	sys, rot, _ := rotOneView(t)
	if distinct, unaccounted := unaccountedRot(sys, nil); distinct != 1 || unaccounted != 1 {
		t.Fatalf("distinct %d unaccounted %d, want 1 and 1", distinct, unaccounted)
	}
	if _, unaccounted := unaccountedRot(sys, map[string]bool{rot.Name: true}); unaccounted != 0 {
		t.Fatalf("a repaired name still counts %d unaccounted", unaccounted)
	}
}

// TestUnsettledViolations: what the final verification pass cannot settle
// is a quarantine or a system-wide finding; an unrepaired finding that
// names a view is left to that pass.
func TestUnsettledViolations(t *testing.T) {
	viols := []multistore.AuditViolation{
		{Invariant: multistore.InvChecksum, View: "v_a", Repaired: true},
		{Invariant: multistore.InvWAL, View: "v_b"},
		{Invariant: multistore.InvChecksum, View: "v_c", Quarantined: true},
		{Invariant: multistore.InvWAL},
	}
	if got := unsettledViolations(viols); got != 2 {
		t.Fatalf("unsettled = %d, want 2 (the quarantine and the system-wide one)", got)
	}
}
