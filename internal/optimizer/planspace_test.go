package optimizer_test

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"miso/internal/data"
	"miso/internal/exec"
	"miso/internal/expr"
	"miso/internal/logical"
	"miso/internal/multistore"
	"miso/internal/optimizer"
	"miso/internal/stats"
	"miso/internal/storage"
	"miso/internal/views"
	"miso/internal/workload"
)

// enumerateCost is the oracle: what Optimizer.Cost did before the plan
// space existed — a full EnumeratePlans under the design and the strict-<
// minimum Choose keeps.
func enumerateCost(o *optimizer.Optimizer, raw *logical.Node, d optimizer.Design) float64 {
	plans := o.EnumeratePlans(raw, d)
	best := plans[0].EstTotal()
	for _, p := range plans[1:] {
		if p.EstTotal() < best {
			best = p.EstTotal()
		}
	}
	return best
}

func designOf(hvViews, dwViews []*views.View) optimizer.Design {
	d := optimizer.EmptyDesign()
	for _, v := range hvViews {
		d.HV.Add(v)
	}
	for _, v := range dwViews {
		d.DW.Add(v)
	}
	return d
}

// sameCost fails unless the space and the oracle agree to the bit.
func sameCost(t testing.TB, what string, o *optimizer.Optimizer, sp *optimizer.PlanSpace, raw *logical.Node, d optimizer.Design) {
	t.Helper()
	got, want := sp.Cost(d), enumerateCost(o, raw, d)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: plan space costs %v (%#x), EnumeratePlans %v (%#x)",
			what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// relevantTo returns the views of the universe matching some node of the
// plan, the set the tuner's probes of that plan draw from.
func relevantTo(plan *logical.Node, universe []*views.View) []*views.View {
	var rel []*views.View
	for _, v := range universe {
		for _, n := range plan.Nodes() {
			if _, ok := views.MatchNode(n, v); ok {
				rel = append(rel, v)
				break
			}
		}
	}
	return rel
}

// dwAnswered reports whether some enumerated split under d has a cut a DW
// view answers, and whether one of those rewrites keeps a residual filter.
func dwAnswered(o *optimizer.Optimizer, raw *logical.Node, d optimizer.Design) (exact, residual bool) {
	for _, p := range o.EnumeratePlans(raw, d) {
		for _, c := range p.Cuts {
			if c.DWView == nil {
				continue
			}
			if c.DWView.Kind == logical.KindViewScan {
				exact = true
			}
			c.DWView.Walk(func(n *logical.Node) {
				if n.Kind == logical.KindFilter {
					residual = true
				}
			})
		}
	}
	return exact, residual
}

// warmSystem runs the paper's workload through MS-MISO (reorganizing every
// 3 queries) so that views, placements and estimator state are real.
func warmSystem(t testing.TB) (*multistore.System, []*logical.Node, []*views.View) {
	t.Helper()
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := multistore.DefaultConfig(multistore.VariantMSMiso)
	cfg.SetBudgets(cat, 2.0, 10<<30)
	sys := multistore.New(cfg, cat)
	builder := logical.NewBuilder(cat)
	var plans []*logical.Node
	for _, sql := range workload.SQLs() {
		if _, err := sys.Run(sql); err != nil {
			t.Fatal(err)
		}
		p, err := builder.BuildSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, p)
	}
	d := sys.Design()
	universe := append(d.HV.All(), d.DW.All()...)
	if d.HV.Len() == 0 || d.DW.Len() == 0 {
		t.Fatalf("design not warm: %d HV views, %d DW views", d.HV.Len(), d.DW.Len())
	}
	return sys, plans, universe
}

// TestPlanSpaceCostEqualsEnumerate pins the shared half of what-if costing
// to the full enumeration it replaced: PlanSpace.Cost must return, bit for
// bit, the minimum EstTotal over EnumeratePlans — for the four probe shapes
// Tune issues, for random designs, for both kinds of DW match, and under
// every optimizer knob that changes the enumeration.
func TestPlanSpaceCostEqualsEnumerate(t *testing.T) {
	sys, plans, universe := warmSystem(t)
	o := sys.Optimizer()
	rng := rand.New(rand.NewSource(23))
	one := func(v *views.View) []*views.View { return []*views.View{v} }

	var sawExact, sawResidual, sawHVRewrite bool
	for qi, raw := range plans {
		sp := o.PlanSpace(raw)
		sameCost(t, "empty design", o, sp, raw, optimizer.EmptyDesign())
		sameCost(t, "the system's design", o, sp, raw, sys.Design())
		for _, v := range universe {
			sameCost(t, "singleton in HV: "+v.Name, o, sp, raw, designOf(one(v), nil))
			sameCost(t, "singleton in DW: "+v.Name, o, sp, raw, designOf(nil, one(v)))
		}
		rel := relevantTo(raw, universe)
		for a := range rel {
			if optimizer.RewriteWithViews(raw, designOf(one(rel[a]), nil).HV) != raw {
				sawHVRewrite = true
			}
			for b := a + 1; b < len(rel); b++ {
				d := designOf(nil, []*views.View{rel[a], rel[b]})
				sameCost(t, "DW pair", o, sp, raw, d)
				e, r := dwAnswered(o, raw, d)
				sawExact, sawResidual = sawExact || e, sawResidual || r
			}
		}
		if qi%4 != 0 && testing.Short() {
			continue
		}
		// Random designs of 0-3 views per store, half of the draws from the
		// plan's relevant views so that most designs touch the plan.
		for i := 0; i < 200; i++ {
			draw := func() []*views.View {
				var out []*views.View
				for n := rng.Intn(4); n > 0; n-- {
					pool := universe
					if len(rel) > 0 && rng.Intn(2) == 0 {
						pool = rel
					}
					out = append(out, pool[rng.Intn(len(pool))])
				}
				return out
			}
			sameCost(t, "random design", o, sp, raw, designOf(draw(), draw()))
		}
	}
	if !sawHVRewrite || !sawExact {
		t.Fatalf("workload designs exercised: HV rewrite %v, exact DW match %v", sawHVRewrite, sawExact)
	}
	t.Logf("DW pairs reached an exact match: %v, a residual match: %v", sawExact, sawResidual)

	// The knobs that change the enumeration or the sums, on the system's own
	// optimizer and against the design the workload left behind.
	d := sys.Design()
	knobs := func(what string, set func(), unset func()) {
		for _, raw := range plans {
			before := o.PlanSpace(raw) // a space built before the knob moves may not serve it
			set()
			sameCost(t, what, o, o.PlanSpace(raw), raw, d)
			sameCost(t, what+", empty design", o, o.PlanSpace(raw), raw, optimizer.EmptyDesign())
			unset()
			sameCost(t, what+" unset again", o, before, raw, d)
		}
	}
	knobs("DisableSplits", func() { o.DisableSplits = true }, func() { o.DisableSplits = false })
	knobs("plan cap = 3", func() { o.SetPlanCap(3) }, func() { o.SetPlanCap(256) })
	for _, raw := range plans {
		// ReuseProbe answers true for one cut of one split: that cut's HV
		// cost leaves the sums of every frontier holding it, in both paths.
		splits := o.EnumeratePlans(raw, optimizer.EmptyDesign())[1:]
		if len(splits) == 0 {
			continue
		}
		cached := splits[len(splits)/2].Cuts[0].Node
		sp := o.PlanSpace(raw)
		free := sp.Cost(optimizer.EmptyDesign())
		o.ReuseProbe = func(n *logical.Node) bool { return n == cached }
		sameCost(t, "ReuseProbe, space built before it was set", o, sp, raw, d)
		sameCost(t, "ReuseProbe", o, o.PlanSpace(raw), raw, d)
		sameCost(t, "ReuseProbe, empty design", o, sp, raw, optimizer.EmptyDesign())
		if sp.Cost(optimizer.EmptyDesign()) > free {
			t.Fatal("a cached cut made the query dearer")
		}
		o.ReuseProbe = nil
	}

	// Four goroutines cost singleton and pair probes against one shared
	// space per plan, as the tuner's what-if workers do (run under -race).
	var wg sync.WaitGroup
	spaces := make([]*optimizer.PlanSpace, len(plans))
	for i, raw := range plans {
		spaces[i] = o.PlanSpace(raw)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i, raw := range plans {
				for k := g; k+1 < len(universe); k += 4 {
					for _, d := range []optimizer.Design{
						designOf(one(universe[k]), nil),
						designOf(nil, one(universe[k])),
						designOf(nil, universe[k:k+2]),
					} {
						if got, want := spaces[i].Cost(d), enumerateCost(o, raw, d); math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("shared space, query %d: %v != %v", i, got, want)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()

	// The space's remainder memo, filled and read by whichever of four
	// goroutines gets to a key first: through one space per plan, each
	// costs every relevant DW singleton and pair twice, in list order and
	// then shuffled, and every answer must be the bits of the cheapest
	// enumerated plan.
	for i, raw := range plans {
		rel := relevantTo(raw, universe)
		var dws [][]*views.View
		for a := range rel {
			dws = append(dws, one(rel[a]))
			for b := a + 1; b < len(rel); b++ {
				dws = append(dws, []*views.View{rel[a], rel[b]})
			}
		}
		want := make([]uint64, len(dws))
		for k, dw := range dws {
			mp, err := optimizer.Cheapest(o.EnumeratePlans(raw, designOf(nil, dw)))
			if err != nil {
				t.Fatal(err)
			}
			want[k] = math.Float64bits(mp.EstTotal())
		}
		sp := o.PlanSpace(raw)
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				order := make([]int, len(dws))
				for k := range order {
					order[k] = k
				}
				order = append(order, rand.New(rand.NewSource(int64(g))).Perm(len(dws))...)
				for _, k := range order {
					if got := sp.Cost(designOf(nil, dws[k])); math.Float64bits(got) != want[k] {
						t.Errorf("remainder memo, query %d, DW design %d: %v != %v", i, k, got, math.Float64frombits(want[k]))
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestPlanSpaceCostUnderDWMatches builds the two DW matches by hand: a view
// that is a cut exactly, and a weaker view that answers it through a
// residual filter. Both send their frontiers down the slow path. The last
// case is the one way a frontier is refused: enumerateCuts never leaves a
// UDF above a cut (SQL plans hoist UDFs into the Extract, and a node that
// calls one is pinned to HV with everything under it), but a DW view that
// answers a UDF-bearing cut through a residual filter would put the UDF in
// DW, so buildPlan drops that split under that design — in both paths.
func TestPlanSpaceCostUnderDWMatches(t *testing.T) {
	f := setup(t)
	raw := f.plan(t, `SELECT lang, COUNT(*) AS n FROM tweets
		WHERE lang = 'en' AND retweets > 100 GROUP BY lang`)
	weaker := f.plan(t, `SELECT lang, COUNT(*) AS n FROM tweets WHERE lang = 'en' GROUP BY lang`)
	filterOf := func(p *logical.Node) *logical.Node {
		var out *logical.Node
		p.Walk(func(n *logical.Node) {
			if n.Kind == logical.KindFilter {
				out = n
			}
		})
		if out == nil {
			t.Fatal("plan has no filter")
		}
		return out
	}
	materialize := func(n *logical.Node) *views.View {
		table, err := exec.Run(n, f.hv.Env())
		if err != nil {
			t.Fatal(err)
		}
		v := views.New(n, table, 0)
		f.est.RecordView(v.Name, stats.Stat{Rows: int64(table.NumRows()), Bytes: table.LogicalBytes()})
		return v
	}
	exactView := materialize(filterOf(raw))
	weakView := materialize(filterOf(weaker))
	sp := f.opt.PlanSpace(raw)

	d := designOf(nil, []*views.View{exactView})
	if exact, _ := dwAnswered(f.opt, raw, d); !exact {
		t.Fatal("the exact view answers no cut")
	}
	sameCost(t, "exact DW view", f.opt, sp, raw, d)

	d = designOf(nil, []*views.View{weakView})
	if _, residual := dwAnswered(f.opt, raw, d); !residual {
		t.Fatal("the weaker view answers no cut through a residual filter")
	}
	sameCost(t, "subsuming DW view", f.opt, sp, raw, d)
	sameCost(t, "both, and the weaker one in HV too", f.opt, sp, raw,
		designOf([]*views.View{weakView}, []*views.View{exactView, weakView}))

	wf := filterOf(weaker)
	udf := &expr.BinOp{Op: ">", L: &expr.Func{Name: "SENTIMENT", Args: []expr.Expr{&expr.ColRef{Name: "tweets.text"}}}, R: &expr.Const{Val: storage.IntValue(0)}}
	pinned, err := logical.NewFilterNode(wf.Child(0), expr.AndAll([]expr.Expr{wf.Pred, udf}))
	if err != nil {
		t.Fatal(err)
	}
	top, err := logical.NewProjectNode(pinned, []logical.Proj{{Expr: &expr.ColRef{Name: "tweets.lang"}, Name: "lang"}})
	if err != nil {
		t.Fatal(err)
	}
	if !pinned.UsesUDFHere() {
		t.Fatal("the hand-built filter calls no UDF")
	}
	sp = f.opt.PlanSpace(top)
	d = designOf(nil, []*views.View{weakView})
	sameCost(t, "UDF-pinned plan, empty design", f.opt, sp, top, optimizer.EmptyDesign())
	if under, empty := len(f.opt.EnumeratePlans(top, d)), len(f.opt.EnumeratePlans(top, optimizer.EmptyDesign())); under >= empty {
		t.Fatalf("the DW view refused no split: %d plans under it, %d without", under, empty)
	}
	sameCost(t, "UDF-pinned plan, split refused under the design", f.opt, sp, top, d)
}
