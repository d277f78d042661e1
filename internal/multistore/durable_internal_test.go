package multistore

// White-box tests of what the durability plane shares with the live system:
// a checkpoint and a WAL payload hold the live views themselves, so taking
// one costs nothing per row or per view, and bit rot, which installs a
// corrupted copy through the view's set, never reaches them.

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"miso/internal/data"
	"miso/internal/durability"
	"miso/internal/faults"
	"miso/internal/views"
	"miso/internal/workload"
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

// journalRun drives a small durable MS-MISO run — queries with scheduled
// reorganizations, an explicit reorganization, log appends, an audit that
// repairs one rotted view and quarantines another, and a recovery — and
// returns the WAL records it wrote as "kind store name checksum" lines.
// After every operation it checks that jbase is the design.
func journalRun(t *testing.T) []string {
	t.Helper()
	sys := newAuditSystem(t, VariantMSMiso, func(c *Config) { c.CheckpointEvery = 1000 })
	var stream []string
	lsn := sys.dur.WAL().LSN()
	step := func(what string, op func() error) {
		t.Helper()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		sys.mu.Lock()
		defer sys.mu.Unlock()
		if got := sys.designMap(); !reflect.DeepEqual(sys.jbase, got) {
			t.Fatalf("after %s: jbase %v, design %v", what, sys.jbase, got)
		}
		wal := sys.dur.WAL()
		recs, torn := wal.Replay(lsn)
		if torn != 0 {
			t.Fatalf("after %s: %d torn bytes", what, torn)
		}
		for _, r := range recs {
			stream = append(stream, fmt.Sprintf("%v %d %s %x", r.Kind, r.Store, r.Name, r.Checksum))
		}
		lsn = wal.LSN()
	}
	sqls := workload.SQLs()
	query := func(i int) func() error {
		return func() error { _, err := sys.Run(sqls[i]); return err }
	}
	for i := 0; i < 8; i++ {
		step(fmt.Sprintf("query %d", i), query(i))
		step(fmt.Sprintf("repeat of query %d", i), query(i))
	}
	step("reorganize", sys.Reorganize)
	tweets, _ := sys.Catalog().Log(data.TweetsLog)
	lines := slices.Clone(tweets.Lines[:6])
	step("append", func() error { _, err := sys.AppendToLog(data.TweetsLog, lines); return err })
	for i := 8; i < 12; i++ {
		step(fmt.Sprintf("query %d", i), query(i))
	}

	// Rot a DW view the audit cannot recompute (no definition), which it
	// quarantines — a write to DW's set alone — then an HV view it
	// recomputes.
	for _, c := range []struct {
		store                 int
		quarantine            bool
		repaired, quarantined int
	}{{1, true, 0, 1}, {0, false, 1, 0}} {
		sys.mu.Lock()
		st := sys.stores()[c.store]
		var victim *views.View
		for _, v := range st.views.All() {
			if v.Def != nil && v.Table != nil && len(v.Table.Rows) > 0 {
				victim = v
				break
			}
		}
		if victim != nil {
			rot := *victim
			rot.Table = victim.Table.Clone()
			durability.CorruptTable(rot.Table, 0.5)
			if c.quarantine {
				rot.Def = nil
			}
			st.views.Add(&rot)
		}
		sys.mu.Unlock()
		if victim == nil {
			t.Fatalf("no view with rows in %s", st.tag)
		}
		step("audit of "+st.tag, func() error {
			viols, _, err := sys.AuditViews("", 0, true)
			repaired, quarantined := 0, 0
			for _, v := range viols {
				repaired += b2i(v.Repaired)
				quarantined += b2i(v.Quarantined)
			}
			if repaired != c.repaired || quarantined != c.quarantined {
				t.Errorf("audit of %s repaired %d and quarantined %d views, want %d and %d",
					st.tag, repaired, quarantined, c.repaired, c.quarantined)
			}
			return err
		})
	}

	step("recover", func() error {
		rec, _, err := Recover(sys.cfg, sys.Catalog(), sys.dur.Latest(), sys.dur.WAL())
		if err == nil {
			sys = rec
			lsn = sys.dur.WAL().LSN()
		}
		return err
	})
	for i := 12; i < 16; i++ {
		step(fmt.Sprintf("query %d", i), query(i))
	}
	return stream
}

// TestJournalGateKeepsTheRecordStream: skipping the design snapshot and
// diff while neither view set's version moved journals exactly what
// diffing at every boundary journals, and leaves jbase the design.
func TestJournalGateKeepsTheRecordStream(t *testing.T) {
	gated := journalRun(t)
	ungatedJournal = true
	t.Cleanup(func() { ungatedJournal = false })
	ungated := journalRun(t)
	if len(gated) == 0 {
		t.Fatal("the run journaled nothing")
	}
	if !slices.Equal(gated, ungated) {
		t.Fatalf("the gate changed the record stream:\ngated   %v\nungated %v", gated, ungated)
	}
}
