package multistore

// White-box tests of what the durability plane shares with the live system:
// a checkpoint and a WAL payload hold the live views themselves, so taking
// one costs nothing per row or per view, and bit rot, which installs a
// corrupted copy through the view's set, never reaches them.

import (
	"fmt"
	"testing"

	"miso/internal/faults"
	"miso/internal/views"
)

// TestCheckpointAllocsIndependentOfRows guards the sharing: a checkpoint
// of a warm MS-MISO system allocates fewer times than its resident views
// hold rows, where copying every view's table allocates once per row, and
// as many times again once more views are planted, where copying every View
// struct allocates once per view.
func TestCheckpointAllocsIndependentOfRows(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	sys := newAuditSystem(t, VariantMSMiso, func(c *Config) { c.CheckpointEvery = 4 })
	runPrefix(t, sys, 32)
	rows, resident := 0, 0
	for _, st := range sys.stores() {
		for _, v := range st.views.All() {
			resident++
			if v.Table != nil {
				rows += v.Table.NumRows()
			}
		}
	}
	allocs := testing.AllocsPerRun(20, func() { sys.Checkpoint() })
	t.Logf("checkpoint: %.0f allocations, %d views holding %d rows", allocs, resident, rows)
	if allocs >= float64(rows) {
		t.Fatalf("a checkpoint allocates %.0f times over %d resident rows", allocs, rows)
	}

	const planted = 8
	sys.mu.Lock()
	all := append(sys.hv.Views.All(), sys.dw.Views.All()...)
	for i := 0; i < planted; i++ {
		v := *all[i%len(all)]
		v.Name = fmt.Sprintf("v_planted_%d", i)
		sys.dw.Views.Add(&v)
	}
	sys.mu.Unlock()
	more := testing.AllocsPerRun(20, func() { sys.Checkpoint() })
	t.Logf("checkpoint: %.0f allocations with %d views planted", more, planted)
	if more != allocs {
		t.Fatalf("a checkpoint allocates %.0f times over %d views, %.0f over %d", allocs, resident, more, resident+planted)
	}
}

// TestRotLeavesCheckpointCopyIntact: SiteViewRot installs a corrupted copy
// of the live view through its set, so the latest checkpoint's view, and
// its WAL payload, still verify.
func TestRotLeavesCheckpointCopyIntact(t *testing.T) {
	sys := newAuditSystem(t, VariantMSMiso, func(c *Config) { c.CheckpointEvery = 4 })
	runPrefix(t, sys, 6)
	ck := sys.Checkpoint()
	sys.mu.Lock()
	sys.inj = faults.NewInjector(faults.Profile{}.With(faults.SiteViewRot, 1), 1)
	sys.maybeRot()
	sys.mu.Unlock()
	rots := sys.RotLog()
	if len(rots) != 1 {
		t.Fatalf("rot log %v, want one entry", rots)
	}
	name := rots[0].Name

	var live, kept *views.View
	for i, st := range sys.stores() {
		if v, ok := st.views.Get(name); ok {
			live = v
		}
		for _, v := range ck.State.(*snapshot).Views[i] {
			if v.Name == name {
				kept = v
			}
		}
	}
	if live == nil || kept == nil {
		t.Fatalf("rotted view %s: live %v, in checkpoint %v", name, live != nil, kept != nil)
	}
	if live.Verify() {
		t.Fatal("rot did not reach the live view")
	}
	if !kept.Verify() {
		t.Error("rot reached the checkpoint's copy")
	}
	if p, ok := sys.dur.WAL().Payload(name); ok && !p.Verify() {
		t.Error("rot reached the WAL payload")
	}
}
