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

// cheapest is the selection rule plan choice is held to: the first plan of
// least EstTotal over EnumeratePlans' list.
func cheapest(plans []*optimizer.MultiPlan) *optimizer.MultiPlan {
	best := plans[0]
	for _, p := range plans[1:] {
		if p.EstTotal() < best.EstTotal() {
			best = p
		}
	}
	return best
}

// enumerateCost is the oracle: the cheapest plan's cost over a full
// EnumeratePlans under the design.
func enumerateCost(o *optimizer.Optimizer, raw *logical.Node, d optimizer.Design) float64 {
	return cheapest(o.EnumeratePlans(raw, d)).EstTotal()
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

// sameCost fails unless the space and the oracle agree to the bit, and the
// space chooses the oracle's plan: the same EstTotal bits and Explain. The
// oracle lists the plans in a fresh space of its own (EnumeratePlans), so
// a space kept across designs is held to a fresh space per design.
func sameCost(t testing.TB, what string, o *optimizer.Optimizer, sp *optimizer.PlanSpace, raw *logical.Node, d optimizer.Design) {
	t.Helper()
	oracle := cheapest(o.EnumeratePlans(raw, d))
	got, want := sp.Cost(d), oracle.EstTotal()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: plan space costs %v (%#x), EnumeratePlans %v (%#x)",
			what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
	mp := sp.Choose(d)
	if math.Float64bits(mp.EstTotal()) != math.Float64bits(want) || mp.Explain() != oracle.Explain() {
		t.Fatalf("%s: the space chose\n%s\nEnumeratePlans' cheapest is\n%s", what, mp.Explain(), oracle.Explain())
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

// TestPlanSpaceCostEqualsEnumerate pins plan choice and what-if costing in
// a kept space to the full enumeration in a fresh one: PlanSpace.Cost of a
// space reused across designs must return, bit for bit, the minimum
// EstTotal over EnumeratePlans under each design, and PlanSpace.Choose its
// first plan of least EstTotal — for the four probe shapes Tune issues,
// for random designs, for both kinds of DW match, and under the plan cap,
// the optimizer knob that changes the enumeration. Both sum through
// frontierCost, so what this holds is that nothing a space keeps (its
// filled slots, its remembered remainders) leaks from one design into the
// next.
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

	// The knob that changes the enumeration, on the system's own optimizer
	// and against the design the workload left behind.
	d := sys.Design()
	for _, raw := range plans {
		before := o.PlanSpace(raw) // a space built before the knob moves may not serve it
		o.SetPlanCap(3)
		sameCost(t, "plan cap = 3", o, o.PlanSpace(raw), raw, d)
		sameCost(t, "plan cap = 3, empty design", o, o.PlanSpace(raw), raw, optimizer.EmptyDesign())
		o.SetPlanCap(256)
		sameCost(t, "plan cap = 3 unset again", o, before, raw, d)
	}
	for _, raw := range plans {
		// A result view answers one cut of one split: that cut's HV cost
		// leaves the sums of every frontier holding it, in both paths.
		splits := o.EnumeratePlans(raw, optimizer.EmptyDesign())[1:]
		if len(splits) == 0 {
			continue
		}
		cached := splits[len(splits)/2].Cuts[0].Node
		sp := o.PlanSpace(raw)
		free := sp.Cost(optimizer.EmptyDesign())
		held := views.NewSet()
		held.Add(views.NewExact(cached, storage.NewTable("held", cached.Schema()), 0))
		reusing, empty := d, optimizer.EmptyDesign()
		reusing.Results, empty.Results = held, held
		sameCost(t, "a held cut", o, sp, raw, reusing)
		sameCost(t, "a held cut", o, o.PlanSpace(raw), raw, reusing)
		sameCost(t, "a held cut, empty design", o, sp, raw, empty)
		if sp.Cost(empty) > free {
			t.Fatal("a cached cut made the query dearer")
		}
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
			want[k] = math.Float64bits(enumerateCost(o, raw, designOf(nil, dw)))
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
// residual filter. Both send their frontiers down the slow path. One space
// then costs a view before and after the DW store holds it, which moves
// the index discount. The last
// case is the one way a frontier is refused: enumerateCuts never leaves a
// UDF above a cut (SQL plans hoist UDFs into the Extract, and a node that
// calls one is pinned to HV with everything under it), but a DW view that
// answers a UDF-bearing cut through a residual filter would put the UDF in
// DW, so frontierCost drops that split under that design — for the kept
// space and the listing alike.
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

	// A kept space outlives moves of the DW store's own set, which the index
	// discount reads: a remainder costed while its view was not resident
	// must not answer once the view is.
	// The filter's equality is on the view's leading column, which the
	// discount asks for.
	indexed := f.plan(t, `SELECT lang, COUNT(*) AS n FROM tweets WHERE followers = 100 GROUP BY lang`)
	unfiltered := materialize(filterOf(indexed).Child(0))
	d = designOf(nil, []*views.View{unfiltered})
	sp = f.opt.PlanSpace(indexed)
	sameCost(t, "a DW view the store does not hold", f.opt, sp, indexed, d)
	notHeld := sp.Cost(d)
	f.dw.Views.Add(unfiltered)
	sameCost(t, "the same view once the store holds it", f.opt, sp, indexed, d)
	if sp.Cost(d) == notHeld {
		t.Fatal("the index discount moved no cost: the residency case is vacuous")
	}
	f.dw.Views.Remove(unfiltered.Name)

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

// TestPlanSpaceConcurrentFill shares one unfilled space per plan among four
// goroutines that Cost and Choose in it under the empty, the warm, the
// swapped (swappedDesign) and random designs, in list order and then
// shuffled, so whichever goroutine gets to a cut or a frontier first fills
// it while the others wait or read it (run under -race). Every answer must
// be, in its bits and its Explain, what a fresh space answers alone.
func TestPlanSpaceConcurrentFill(t *testing.T) {
	sys, plans, universe := warmSystem(t)
	o := sys.Optimizer()
	warm := sys.Design()
	designs := []optimizer.Design{optimizer.EmptyDesign(), warm, swappedDesign(t, o, warm, plans)}
	rng := rand.New(rand.NewSource(47))
	draw := func() []*views.View {
		out := make([]*views.View, 1+rng.Intn(3))
		for i := range out {
			out[i] = universe[rng.Intn(len(universe))]
		}
		return out
	}
	for i := 0; i < 4; i++ {
		designs = append(designs, designOf(draw(), draw()))
	}

	type answer struct {
		cost    uint64
		explain string
	}
	for qi, raw := range plans {
		want := make([]answer, len(designs))
		for k, d := range designs {
			mp := o.PlanSpace(raw).Choose(d)
			want[k] = answer{math.Float64bits(o.PlanSpace(raw).Cost(d)), mp.Explain()}
			if want[k].cost != math.Float64bits(mp.EstTotal()) {
				t.Fatalf("query %d, design %d: Cost %v, Choose's plan %v", qi, k, math.Float64frombits(want[k].cost), mp.EstTotal())
			}
		}
		sp := o.PlanSpace(raw)
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				order := make([]int, len(designs))
				for k := range order {
					order[k] = k
				}
				order = append(order, rand.New(rand.NewSource(int64(g))).Perm(len(designs))...)
				for _, k := range order {
					if g%2 == 1 {
						if got := math.Float64bits(sp.Cost(designs[k])); got != want[k].cost {
							t.Errorf("query %d, design %d: shared space costs %v, alone %v", qi, k, math.Float64frombits(got), math.Float64frombits(want[k].cost))
							return
						}
					}
					mp := sp.Choose(designs[k])
					if got := (answer{math.Float64bits(mp.EstTotal()), mp.Explain()}); got != want[k] {
						t.Errorf("query %d, design %d: the shared space chose\n%s\nalone it chooses\n%s", qi, k, got.explain, want[k].explain)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
