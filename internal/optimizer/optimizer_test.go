package optimizer_test

import (
	"context"
	"runtime"
	"slices"
	"testing"

	"miso/internal/data"
	"miso/internal/dw"
	"miso/internal/exec"
	"miso/internal/hv"
	"miso/internal/logical"
	"miso/internal/optimizer"
	"miso/internal/stats"
	"miso/internal/storage"
	"miso/internal/views"
	"miso/internal/workload"
)

type fixture struct {
	cat *storage.Catalog
	b   *logical.Builder
	est *stats.Estimator
	hv  *hv.Store
	dw  *dw.Store
	opt *optimizer.Optimizer
}

func setup(t *testing.T) *fixture {
	t.Helper()
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	est := stats.NewEstimator(cat)
	h := hv.NewStore(cat, est, 0)
	d := dw.NewStore(est, 0)
	return &fixture{
		cat: cat, b: logical.NewBuilder(cat), est: est, hv: h, dw: d,
		opt: optimizer.New(h, d, est),
	}
}

func (f *fixture) plan(t *testing.T, sql string) *logical.Node {
	t.Helper()
	p, err := f.b.BuildSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

const joinAgg = `SELECT l.city, COUNT(*) AS n FROM checkins c
	JOIN landmarks l ON c.venue_id = l.venue_id
	WHERE c.category = 'bar' GROUP BY l.city`

func TestEnumeratePlansIncludesHVOnlyAndSplits(t *testing.T) {
	f := setup(t)
	plans := f.opt.EnumeratePlans(f.plan(t, joinAgg), optimizer.EmptyDesign())
	if len(plans) < 3 {
		t.Fatalf("plans = %d", len(plans))
	}
	if !plans[0].HVOnly {
		t.Error("first plan should be HV-only")
	}
	splits := 0
	for _, p := range plans[1:] {
		if p.HVOnly {
			t.Error("duplicate HV-only plan")
		}
		if p.DWPart == nil {
			t.Error("split plan without a DW part")
		}
		splits++
	}
	if splits == 0 {
		t.Error("no split plans enumerated")
	}
}

func TestSplitPlansKeepUDFsInHV(t *testing.T) {
	f := setup(t)
	p := f.plan(t, `SELECT lang, COUNT(*) AS n FROM tweets
		WHERE SENTIMENT(text) > 0 GROUP BY lang`)
	for _, mp := range f.opt.EnumeratePlans(p, optimizer.EmptyDesign()) {
		if mp.HVOnly {
			continue
		}
		if mp.DWPart.UsesUDF() {
			t.Fatal("a split plan put UDF work in DW")
		}
	}
}

func TestSplitExecutionMatchesHVOnly(t *testing.T) {
	f := setup(t)
	p := f.plan(t, joinAgg)
	hvRes, err := f.hv.ExecuteContext(context.Background(), p, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Execute every enumerated split for real and compare row counts.
	for i, mp := range f.opt.EnumeratePlans(p, optimizer.EmptyDesign()) {
		if mp.HVOnly {
			continue
		}
		for _, cut := range mp.Cuts {
			if cut.DWView != nil {
				continue
			}
			res, err := f.hv.ExecuteContext(context.Background(), cut.HVPlan, 0)
			if err != nil {
				t.Fatalf("plan %d cut: %v", i, err)
			}
			f.dw.StageTemp(cut.TempName, res.Table)
		}
		dwRes, err := f.dw.ExecuteContext(context.Background(), mp.DWPart)
		if err != nil {
			t.Fatalf("plan %d DW part: %v", i, err)
		}
		if dwRes.Table.NumRows() != hvRes.Table.NumRows() {
			t.Errorf("plan %d: %d rows, HV-only %d",
				i, dwRes.Table.NumRows(), hvRes.Table.NumRows())
		}
		f.dw.ClearTemp()
	}
}

func TestChoosePicksCheapest(t *testing.T) {
	f := setup(t)
	p := f.plan(t, joinAgg)
	d := optimizer.EmptyDesign()
	plans := f.opt.EnumeratePlans(p, d)
	best, err := f.opt.Choose(p, d)
	if err != nil {
		t.Fatal(err)
	}
	for _, mp := range plans {
		if mp.EstTotal() < best.EstTotal() {
			t.Errorf("Choose returned %.1f, but a plan costs %.1f", best.EstTotal(), mp.EstTotal())
		}
	}
}

func TestDWResidentViewEnablesBypass(t *testing.T) {
	f := setup(t)
	p := f.plan(t, joinAgg)
	// Materialize the query's join core and place it in DW.
	core := p.Child(0).Child(0) // aggregate -> join chain
	for core.Kind == logical.KindFilter {
		core = core.Child(0)
	}
	if core.Kind != logical.KindJoin {
		// Walk down from the root to the join.
		p.Walk(func(n *logical.Node) {
			if n.Kind == logical.KindJoin {
				core = n
			}
		})
	}
	table, err := exec.Run(core, f.hv.Env())
	if err != nil {
		t.Fatal(err)
	}
	v := views.New(core, table, 0)
	f.dw.Views.Add(v)
	f.est.RecordView(v.Name, stats.Stat{Rows: int64(table.NumRows()), Bytes: table.LogicalBytes()})

	d := optimizer.Design{HV: views.NewSet(), DW: f.dw.Views}
	best, err := f.opt.Choose(p, d)
	if err != nil {
		t.Fatal(err)
	}
	if best.HVOnly {
		t.Fatal("optimizer ignored the DW view")
	}
	allFromDW := true
	for _, cut := range best.Cuts {
		if cut.DWView == nil {
			allFromDW = false
		}
	}
	if !allFromDW {
		t.Error("expected a full bypass via the DW-resident join view")
	}
	if best.EstHV != 0 || best.EstTransfer != 0 {
		t.Errorf("bypass should cost no HV/transfer time: hv=%.1f xfer=%.1f",
			best.EstHV, best.EstTransfer)
	}
}

func TestHVViewLowersHVCost(t *testing.T) {
	f := setup(t)
	p := f.plan(t, joinAgg)
	empty := optimizer.EmptyDesign()
	coldCost := f.opt.PlanSpace(p).Cost(empty)

	// Execute once so opportunistic views exist in HV.
	if _, err := f.hv.ExecuteContext(context.Background(), p, 0); err != nil {
		t.Fatal(err)
	}
	warm := optimizer.Design{HV: f.hv.Views, DW: views.NewSet()}
	warmCost := f.opt.PlanSpace(p).Cost(warm)
	if warmCost >= coldCost {
		t.Errorf("warm cost %.1f not below cold %.1f", warmCost, coldCost)
	}
}

func TestRewriteWithViewsIdentityWhenEmpty(t *testing.T) {
	f := setup(t)
	p := f.plan(t, joinAgg)
	if got := optimizer.RewriteWithViews(p, views.NewSet()); got != p {
		t.Error("empty set rewrite should return the plan unchanged")
	}
	if got := optimizer.RewriteWithViews(p, nil); got != p {
		t.Error("nil set rewrite should return the plan unchanged")
	}
}

// BenchmarkChooseWarm measures fresh plan choices on a warm system: the
// design MS-MISO holds after the 32-query workload (both stores populated
// by the tuner), against which one iteration chooses a plan for every query
// of the workload in a new plan space each — split enumeration, view
// matching on every cut, each cut's and plain remainder's costing filled
// once where the design's views leave them alone, the DW remainders its DW
// views answer costed without being built, and the winner built.
func BenchmarkChooseWarm(b *testing.B) {
	sys, plans, _ := warmSystem(b)
	opt, d := sys.Optimizer(), sys.Design()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range plans {
			if _, err := opt.Choose(p, d); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// swappedDesign returns the warm design with one DW view swapped: the DW
// view most of the workload's chosen plans read leaves DW, and the first HV
// view DW does not hold takes its place.
func swappedDesign(tb testing.TB, o *optimizer.Optimizer, warm optimizer.Design, plans []*logical.Node) optimizer.Design {
	tb.Helper()
	reads := map[string]int{}
	for _, p := range plans {
		mp, err := o.Choose(p, warm)
		if err != nil {
			tb.Fatal(err)
		}
		for _, c := range mp.Cuts {
			if c.DWView != nil {
				c.DWView.Walk(func(n *logical.Node) {
					if n.Kind == logical.KindViewScan {
						reads[n.ViewName]++
					}
				})
			}
		}
	}
	names := make([]string, 0, len(reads))
	for name := range reads {
		names = append(names, name)
	}
	if len(names) == 0 {
		tb.Fatal("no chosen plan reads a DW view")
	}
	slices.Sort(names)
	out := names[0]
	for _, name := range names {
		if reads[name] > reads[out] {
			out = name
		}
	}
	swapped := optimizer.Design{HV: warm.HV.Clone(), DW: warm.DW.Clone()}
	swapped.DW.Remove(out)
	for _, v := range warm.HV.Members() {
		if !warm.DW.Has(v.Name) {
			swapped.DW.Add(v)
			break
		}
	}
	return swapped
}

// chosenSpaces builds one plan space per plan and chooses in each under d,
// as the plan cache keeps them.
func chosenSpaces(tb testing.TB, o *optimizer.Optimizer, plans []*logical.Node, d optimizer.Design) []*optimizer.PlanSpace {
	tb.Helper()
	spaces := make([]*optimizer.PlanSpace, len(plans))
	for i, p := range plans {
		spaces[i] = o.PlanSpace(p)
		if _, err := spaces[i].Choose(d); err != nil {
			tb.Fatal(err)
		}
	}
	return spaces
}

// BenchmarkRecostWarm is BenchmarkChooseWarm as the plan cache meets a
// design move: one space per statement, built and chosen in under the warm
// design outside the timer, then chosen in again under the design with one
// DW view swapped (swappedDesign) — the re-cost a kept space makes in place
// of a fresh choice.
func BenchmarkRecostWarm(b *testing.B) {
	sys, plans, _ := warmSystem(b)
	opt, warm := sys.Optimizer(), sys.Design()
	swapped := swappedDesign(b, opt, warm, plans)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		spaces := chosenSpaces(b, opt, plans, warm)
		b.StartTimer()
		for _, sp := range spaces {
			if _, err := sp.Choose(swapped); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// mallocs counts the heap allocations of run over the n statements.
func mallocs(t *testing.T, n int, run func(i int) error) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		if err := run(i); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestPlanSpaceRecostAllocs guards what keeping a statement's space saves:
// over the 32 statements, choosing again in the spaces chosen in under the
// warm design, after one DW view is swapped (swappedDesign), must allocate
// at most half of what fresh choices under the swapped design allocate.
func TestPlanSpaceRecostAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	sys, plans, _ := warmSystem(t)
	opt, warm := sys.Optimizer(), sys.Design()
	swapped := swappedDesign(t, opt, warm, plans)
	spaces := chosenSpaces(t, opt, plans, warm)
	recost := mallocs(t, len(plans), func(i int) error { _, err := spaces[i].Choose(swapped); return err })
	fresh := mallocs(t, len(plans), func(i int) error { _, err := opt.Choose(plans[i], swapped); return err })
	t.Logf("after a DW swap the 32 statements allocate %d times re-costed, %d chosen afresh", recost, fresh)
	if 2*recost > fresh {
		t.Errorf("a re-cost allocates %d times, more than half of a fresh choice's %d", recost, fresh)
	}
}

// TestFreshChooseAllocs guards what a fresh plan choice costs against the
// enumeration plan spaces replaced: over the 32 statements under the warm
// design, Optimizer.Choose — a new space per statement, whose cuts and plain
// remainders are costed when first needed and whose DW remainders are
// costed without being built, the winner's aside — must allocate no more
// than EnumeratePlans, which builds and costs every plan.
func TestFreshChooseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	sys, plans, _ := warmSystem(t)
	opt, d := sys.Optimizer(), sys.Design()
	choose := func(i int) error { _, err := opt.Choose(plans[i], d); return err }
	enumerate := func(i int) error { opt.EnumeratePlans(plans[i], d); return nil }
	// One pass of each first, so neither count holds the memo cells a
	// plan's first costing fills.
	mallocs(t, len(plans), choose)
	mallocs(t, len(plans), enumerate)
	fresh, all := mallocs(t, len(plans), choose), mallocs(t, len(plans), enumerate)
	t.Logf("the 32 statements allocate %d times chosen afresh, %d enumerated", fresh, all)
	if fresh > all {
		t.Errorf("a fresh choice allocates %d times, more than the enumeration's %d", fresh, all)
	}
}

// BenchmarkBuildChooseWarm is BenchmarkChooseWarm as a served query meets
// it: every iteration builds each query's plan afresh from its SQL and then
// chooses, so no node arrives with anything computed beyond what building
// sets — which BenchmarkChooseWarm's reused plans hide after its first
// iteration. Each iteration takes a fresh Builder, whose memo would
// otherwise hand the second iteration the first one's plans.
func BenchmarkBuildChooseWarm(b *testing.B) {
	sys, _, _ := warmSystem(b)
	opt, d := sys.Optimizer(), sys.Design()
	sqls := workload.SQLs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		builder := logical.NewBuilder(sys.Catalog())
		for _, sql := range sqls {
			p, err := builder.BuildSQL(sql)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := opt.Choose(p, d); err != nil {
				b.Fatal(err)
			}
		}
	}
}
