package dw_test

import (
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"miso/internal/data"
	"miso/internal/dw"
	"miso/internal/exec"
	"miso/internal/expr"
	"miso/internal/hv"
	"miso/internal/logical"
	"miso/internal/multistore"
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
}

func setup(t *testing.T) *fixture {
	t.Helper()
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	est := stats.NewEstimator(cat)
	return &fixture{
		cat: cat,
		b:   logical.NewBuilder(cat),
		est: est,
		hv:  hv.NewStore(cat, est, 0),
		dw:  dw.NewStore(est, 0),
	}
}

// loadView materializes a query's SPJ core in HV and installs it as a DW
// permanent view.
func (f *fixture) loadView(t *testing.T, sql string) *views.View {
	t.Helper()
	plan, err := f.b.BuildSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	core := plan
	for core.Kind == logical.KindProject || core.Kind == logical.KindSort ||
		core.Kind == logical.KindLimit {
		core = core.Child(0)
	}
	table, err := exec.Run(core, f.hv.Env())
	if err != nil {
		t.Fatal(err)
	}
	v := views.New(core, table, 0)
	f.dw.Views.Add(v)
	f.est.RecordView(v.Name, stats.Stat{Rows: int64(table.NumRows()), Bytes: table.LogicalBytes()})
	return v
}

func TestExecuteOverPermanentView(t *testing.T) {
	f := setup(t)
	v := f.loadView(t, "SELECT tweet_id FROM tweets WHERE lang = 'en'")
	scan := logical.NewViewScan(v.Name, v.Table.Schema)
	res, err := f.dw.ExecuteContext(context.Background(), scan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() != v.Table.NumRows() {
		t.Errorf("rows = %d, want %d", res.Table.NumRows(), v.Table.NumRows())
	}
	if res.Seconds <= 0 {
		t.Error("zero cost")
	}
}

func TestExecuteRejectsUDF(t *testing.T) {
	f := setup(t)
	plan, err := f.b.BuildSQL("SELECT tweet_id FROM tweets WHERE SENTIMENT(text) > 0")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.dw.ExecuteContext(context.Background(), plan); err == nil {
		t.Fatal("UDF plan executed in DW")
	} else if !strings.Contains(err.Error(), "UDF") {
		t.Errorf("unexpected error: %v", err)
	}
}

func TestExecuteRejectsRawLogs(t *testing.T) {
	f := setup(t)
	plan, err := f.b.BuildSQL("SELECT tweet_id FROM tweets")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.dw.ExecuteContext(context.Background(), plan); err == nil {
		t.Fatal("raw-log scan executed in DW")
	}
}

func TestTempSpaceLifecycle(t *testing.T) {
	f := setup(t)
	tbl := storage.NewTable("ws", storage.MustSchema(
		storage.Column{Name: "x", Type: storage.KindInt}))
	tbl.MustAppend(storage.Row{storage.IntValue(1)})
	f.dw.StageTemp("ws_0", tbl)
	scan := logical.NewViewScan("ws_0", tbl.Schema)
	res, err := f.dw.ExecuteContext(context.Background(), scan)
	if err != nil {
		t.Fatalf("temp not resolvable: %v", err)
	}
	if res.Table.NumRows() != 1 {
		t.Error("temp table content lost")
	}
	f.dw.ClearTemp()
	if _, err := f.dw.ExecuteContext(context.Background(), scan); !errors.Is(err, dw.ErrNoSuchTable) {
		t.Errorf("temp survived ClearTemp: %v", err)
	}
}

// TestStagedWorkingSetsBelongToOneExecution: BeginExecute reads the working
// sets it is handed and nothing another caller staged; Commit records no
// statistic over them.
func TestStagedWorkingSetsBelongToOneExecution(t *testing.T) {
	f := setup(t)
	tbl := storage.NewTable("ws", storage.MustSchema(
		storage.Column{Name: "x", Type: storage.KindInt}))
	tbl.MustAppend(storage.Row{storage.IntValue(1)})
	scan := logical.NewViewScan("ws_0", tbl.Schema)
	p, err := f.dw.BeginExecute(context.Background(), scan, map[string]*storage.Table{"ws_0": tbl})
	if err != nil {
		t.Fatal(err)
	}
	if p.Table().NumRows() != 1 {
		t.Error("staged table content lost")
	}
	at := f.est.Version()
	if res := p.Commit(); res.Table != p.Table() || res.Seconds <= 0 {
		t.Errorf("commit answered %v in %vs", res.Table, res.Seconds)
	}
	if f.est.Version() != at {
		t.Error("the commit recorded a statistic over a staged working set")
	}
	if _, err := f.dw.ExecuteContext(context.Background(), scan); !errors.Is(err, dw.ErrNoSuchTable) {
		t.Errorf("a staged working set resolves in the store's temp space: %v", err)
	}
	if _, err := f.dw.BeginExecute(context.Background(), scan, nil); !errors.Is(err, dw.ErrNoSuchTable) {
		t.Errorf("an execution read a working set staged for another: %v", err)
	}
}

func TestPermanentShadowsNothingAndResolveOrder(t *testing.T) {
	f := setup(t)
	v := f.loadView(t, "SELECT checkin_id FROM checkins WHERE category = 'bar'")
	// A staged table of the same name does not shadow the permanent view.
	other := storage.NewTable("ws", v.Table.Schema)
	scan := logical.NewViewScan(v.Name, v.Table.Schema)
	p, err := f.dw.BeginExecute(context.Background(), scan, map[string]*storage.Table{v.Name: other})
	if err != nil {
		t.Fatalf("permanent resolve failed: %v", err)
	}
	if p.Table().NumRows() != v.Table.NumRows() {
		t.Errorf("read %d rows, want the permanent view's %d", p.Table().NumRows(), v.Table.NumRows())
	}
	missing := logical.NewViewScan("missing", v.Table.Schema)
	if _, err := f.dw.BeginExecute(context.Background(), missing, nil); !errors.Is(err, dw.ErrNoSuchTable) {
		t.Errorf("missing name resolved: %v", err)
	}
}

func TestIndexSelectivityDiscountsCost(t *testing.T) {
	f := setup(t)
	v := f.loadView(t, "SELECT tweet_id FROM tweets WHERE lang = 'en'")
	lead := v.Table.Schema.Columns[0].Name
	scan := logical.NewViewScan(v.Name, v.Table.Schema)

	// Filter with an equality on the view's leading (indexed) column.
	indexed, err := logical.NewFilterNode(scan, eqPred(lead, v.Table.Rows[0][0]))
	if err != nil {
		t.Fatal(err)
	}
	// Filter on a non-leading column.
	other := v.Table.Schema.Columns[1].Name
	unindexed, err := logical.NewFilterNode(
		logical.NewViewScan(v.Name, v.Table.Schema), eqPred(other, v.Table.Rows[0][1]))
	if err != nil {
		t.Fatal(err)
	}
	ci := f.dw.CostBuilt(indexed, nil)
	cu := f.dw.CostBuilt(unindexed, nil)
	if ci >= cu {
		t.Errorf("indexed filter cost %.4f not below unindexed %.4f", ci, cu)
	}
}

func eqPred(col string, val storage.Value) expr.Expr {
	return &expr.BinOp{Op: "=", L: &expr.ColRef{Name: col}, R: &expr.Const{Val: val}}
}

// TestCostAboveMatchesBuiltPlan holds the one what-if path to the built-tree
// reference: on a warm MS-MISO system (the 32 statements, reorganizing every
// 3), under six designs, every EstDW EnumeratePlans lists — a CostAbove walk
// over the raw plan — must equal, bit for bit, CostBuilt over the listed
// plan's DWPart with each migrated working set's scan sized by its cut's
// estimate. The designs place the warm views as the system does, in one
// store only, swapped, and all in DW, so remainders read resident DW views
// (the index discount), views DW does not hold, exact and residual DW
// matches, and working sets.
func TestCostAboveMatchesBuiltPlan(t *testing.T) {
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
	warm := sys.Design()
	if warm.HV.Len() == 0 || warm.DW.Len() == 0 {
		t.Fatalf("design not warm: %d HV views, %d DW views", warm.HV.Len(), warm.DW.Len())
	}
	set := func(vs ...[]*views.View) *views.Set {
		out := views.NewSet()
		for _, v := range vs {
			for _, view := range v {
				out.Add(view)
			}
		}
		return out
	}
	hvs, dws := warm.HV.All(), warm.DW.All()
	designs := map[string]optimizer.Design{
		"empty":     optimizer.EmptyDesign(),
		"warm":      {HV: warm.HV, DW: warm.DW},
		"HV only":   {HV: warm.HV, DW: views.NewSet()},
		"DW only":   {HV: views.NewSet(), DW: warm.DW},
		"swapped":   {HV: set(dws), DW: set(hvs)},
		"all in DW": {HV: views.NewSet(), DW: set(hvs, dws)},
	}
	d, est := sys.DW(), sys.DW().Estimator()
	remainders, discounted := 0, 0
	for name, design := range designs {
		for qi, raw := range plans {
			for _, mp := range sys.Optimizer().EnumeratePlans(raw, design) {
				if mp.HVOnly {
					continue
				}
				overlay := map[uint64]stats.Stat{}
				for _, c := range mp.Cuts {
					if c.DWView == nil {
						overlay[logical.NewViewScan(c.TempName, nil).ID()] = est.Estimate(c.Node)
					}
				}
				want := d.CostBuilt(mp.DWPart, overlay)
				if math.Float64bits(mp.EstDW) != math.Float64bits(want) {
					t.Fatalf("%s design, query %d: EstDW %v (%#x), the built remainder costs %v (%#x)\n%s",
						name, qi, mp.EstDW, math.Float64bits(mp.EstDW), want, math.Float64bits(want), mp.Explain())
				}
				remainders++
				mp.DWPart.Walk(func(n *logical.Node) {
					if n.Kind == logical.KindFilter && n.Child(0).Kind == logical.KindViewScan && d.Views.Has(n.Child(0).ViewName) {
						discounted++
					}
				})
			}
		}
	}
	t.Logf("%d DW remainders matched the built-tree reference; %d filters over a resident DW view", remainders, discounted)
	if discounted == 0 {
		t.Fatal("no remainder filters a resident DW view: the index discount went unchecked")
	}
}
