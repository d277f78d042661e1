package multistore_test

import (
	"slices"
	"strings"
	"testing"

	"miso/internal/data"
	"miso/internal/logical"
	"miso/internal/multistore"
	"miso/internal/storage"
	"miso/internal/workload"
)

func newSystem(t *testing.T, v multistore.Variant) *multistore.System {
	t.Helper()
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := multistore.DefaultConfig(v)
	cfg.SetBudgets(cat, 2.0, 10<<30)
	sys := multistore.New(cfg, cat)
	if err := sys.ProvideFutureWorkload(workload.SQLs()); err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestDWOnlyETLBuildsPerLogViews(t *testing.T) {
	sys := newSystem(t, multistore.VariantDWOnly)
	q, _ := workload.ByName("A1v1")
	rep, err := sys.Run(q.SQL)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.BypassedHV || rep.HVSeconds != 0 {
		t.Error("DW-ONLY query touched HV")
	}
	m := sys.Metrics()
	if m.ETL <= 0 {
		t.Fatal("no ETL cost charged")
	}
	// One permanent view per log touched by the workload.
	if sys.DW().Views.Len() != 3 {
		t.Errorf("ETL views = %d, want 3", sys.DW().Views.Len())
	}
	// The ETL views carry the workload's hoisted UDF columns as data.
	foundUDFCol := false
	for _, v := range sys.DW().Views.All() {
		for _, c := range v.Table.Schema.Columns {
			if strings.Contains(c.Name, ".__") {
				foundUDFCol = true
			}
		}
	}
	if !foundUDFCol {
		t.Error("ETL views lack precomputed UDF columns")
	}
	// HV retains nothing.
	if sys.HV().Views.Len() != 0 {
		t.Error("DW-ONLY left views in HV")
	}
	// The ETL is one-time: a second query adds no ETL cost.
	q2, _ := workload.ByName("A1v2")
	if _, err := sys.Run(q2.SQL); err != nil {
		t.Fatal(err)
	}
	if sys.Metrics().ETL != m.ETL {
		t.Error("ETL charged again")
	}
}

// TestDWOnlyAfterAppendMatchesHVOnly appends to the tweets log after
// DW-ONLY's ETL. The append drops the ETL'd view of the log; the next
// DW-ONLY query loads that log alone again, charged to ETL and followed by a
// checkpoint, and every statement's answer then equals HV-ONLY's over the
// same lines. Recovery from the reload's checkpoint reproduces the system.
func TestDWOnlyAfterAppendMatchesHVOnly(t *testing.T) {
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := multistore.DefaultConfig(multistore.VariantDWOnly)
	cfg.SetBudgets(cat, 2.0, 10<<30)
	cfg.CheckpointEvery = 1 << 20 // only where the journal does not carry a change
	dwo := multistore.New(cfg, cat)
	sqls := workload.SQLs()
	if err := dwo.ProvideFutureWorkload(sqls); err != nil {
		t.Fatal(err)
	}
	hvo := newSystem(t, multistore.VariantHVOnly)
	if _, err := dwo.Run(sqls[0]); err != nil {
		t.Fatal(err)
	}
	loaded := dwo.DW().Views.All()
	lines := []string{tweetLine(t, 2_000_001), tweetLine(t, 2_000_002)}
	for _, sys := range []*multistore.System{dwo, hvo} {
		if _, err := sys.AppendToLog(data.TweetsLog, lines); err != nil {
			t.Fatal(err)
		}
	}
	if got := dwo.DW().Views.Len(); got != len(loaded)-1 {
		t.Fatalf("the append left %d of the %d ETL'd views, want %d", got, len(loaded), len(loaded)-1)
	}
	etl, ckpts := dwo.Metrics().ETL, dwo.Durability().Checkpoints()
	for i, sql := range sqls {
		d, err := dwo.Run(sql)
		if err != nil {
			t.Fatalf("DW-ONLY, query %d after the append: %v", i, err)
		}
		h, err := hvo.Run(sql)
		if err != nil {
			t.Fatalf("HV-ONLY, query %d after the append: %v", i, err)
		}
		if storage.ChecksumData(d.Result) != storage.ChecksumData(h.Result) {
			t.Errorf("query %d: DW-ONLY answers %016x, HV-ONLY %016x", i, storage.ChecksumData(d.Result), storage.ChecksumData(h.Result))
		}
		if i == 0 {
			if dwo.Metrics().ETL <= etl || dwo.Durability().Checkpoints() <= ckpts {
				t.Errorf("the reload charged ETL %v -> %v and took %d -> %d checkpoints", etl, dwo.Metrics().ETL, ckpts, dwo.Durability().Checkpoints())
			}
			etl = dwo.Metrics().ETL
		}
	}
	if dwo.Metrics().ETL != etl {
		t.Error("ETL charged again after the reload")
	}
	// Only the appended log was loaded again: the other views are the ones
	// the first ETL loaded.
	kept := 0
	for _, v := range loaded {
		if got, ok := dwo.DW().Views.Get(v.Name); ok && got.Table == v.Table {
			kept++
		}
	}
	if dwo.DW().Views.Len() != len(loaded) || kept != len(loaded)-1 {
		t.Errorf("after the reload DW holds %d views, %d of them from the first ETL; want %d and %d", dwo.DW().Views.Len(), kept, len(loaded), len(loaded)-1)
	}
	rec, rep, err := multistore.Recover(cfg, cat, dwo.Durability().Latest(), dwo.Durability().WAL())
	if err != nil {
		t.Fatal(err)
	}
	want := dwo.Metrics()
	want.Recovery += rep.Seconds
	if got := rec.Metrics(); got != want || !slices.Equal(designNames(rec), designNames(dwo)) {
		t.Errorf("recovered metrics %+v and design %v; live %+v and %v", got, designNames(rec), want, designNames(dwo))
	}
}

func TestDWOnlyRequiresFutureWorkload(t *testing.T) {
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := multistore.DefaultConfig(multistore.VariantDWOnly)
	cfg.SetBudgets(cat, 2.0, 10<<30)
	sys := multistore.New(cfg, cat)
	q, _ := workload.ByName("A1v1")
	if _, err := sys.Run(q.SQL); err == nil {
		t.Error("DW-ONLY ran without a workload to scope the ETL")
	}
}

func TestReorgSchedule(t *testing.T) {
	sys := newSystem(t, multistore.VariantMSMiso)
	for i := 0; i < 7; i++ {
		if _, err := sys.Run(workload.SQLs()[i]); err != nil {
			t.Fatal(err)
		}
	}
	// ReorgEvery=3: reorganizations before queries 3 and 6.
	log := sys.ReorgLog()
	if len(log) != 2 {
		t.Fatalf("reorgs = %d, want 2", len(log))
	}
	if log[0].BeforeSeq != 3 || log[1].BeforeSeq != 6 {
		t.Errorf("reorg points = %d, %d", log[0].BeforeSeq, log[1].BeforeSeq)
	}
	if sys.Metrics().Reorgs != 2 {
		t.Error("metrics reorg count wrong")
	}
}

func TestManualReorganize(t *testing.T) {
	sys := newSystem(t, multistore.VariantMSMiso)
	if _, err := sys.Run(workload.SQLs()[0]); err != nil {
		t.Fatal(err)
	}
	if err := sys.Reorganize(); err != nil {
		t.Fatal(err)
	}
	if sys.Metrics().Reorgs != 1 {
		t.Error("manual reorganization not recorded")
	}
	// No-op on untuned variants.
	basic := newSystem(t, multistore.VariantMSBasic)
	if err := basic.Reorganize(); err != nil {
		t.Fatal(err)
	}
	if basic.Metrics().Reorgs != 0 {
		t.Error("MS-BASIC reorganized")
	}
}

func TestMetricsIdentity(t *testing.T) {
	// TTI must equal the sum of per-query times plus tuning plus ETL —
	// the cumulative series reconstruction relies on it.
	for _, v := range []multistore.Variant{
		multistore.VariantMSMiso, multistore.VariantDWOnly, multistore.VariantHVOp,
	} {
		sys := newSystem(t, v)
		for i := 0; i < 8; i++ {
			if _, err := sys.Run(workload.SQLs()[i]); err != nil {
				t.Fatalf("%s: %v", v, err)
			}
		}
		var sum float64
		for _, rep := range sys.Reports() {
			sum += rep.Total()
		}
		m := sys.Metrics()
		sum += m.Tune + m.ETL
		if diff := sum - m.TTI(); diff > 0.01 || diff < -0.01 {
			t.Errorf("%s: query+tune+etl = %.2f, TTI = %.2f", v, sum, m.TTI())
		}
	}
}

func TestMSOraUsesFuture(t *testing.T) {
	// MS-ORA must run without error and reorganize using the provided
	// future workload; with the future known, it is at least as good as
	// MS-MISO on total HV time is not guaranteed per-query, so just
	// validate it completes and tunes.
	sys := newSystem(t, multistore.VariantMSOra)
	for i := 0; i < 8; i++ {
		if _, err := sys.Run(workload.SQLs()[i]); err != nil {
			t.Fatal(err)
		}
	}
	if sys.Metrics().Reorgs == 0 {
		t.Error("MS-ORA never reorganized")
	}
}

func TestSetBudgetsScaling(t *testing.T) {
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := multistore.DefaultConfig(multistore.VariantMSMiso)
	cfg.SetBudgets(cat, 2.0, 42)
	base := cat.TotalLogicalBytes()
	if cfg.Tuner.Bh != 2*base {
		t.Errorf("Bh = %d, want %d", cfg.Tuner.Bh, 2*base)
	}
	if cfg.Tuner.Bd != 2*base/10 {
		t.Errorf("Bd = %d, want %d (DW base is 1/10 of the logs)", cfg.Tuner.Bd, 2*base/10)
	}
	if cfg.Tuner.Bt != 42 {
		t.Errorf("Bt = %d", cfg.Tuner.Bt)
	}
}

func TestInvalidSQLLeavesSystemConsistent(t *testing.T) {
	sys := newSystem(t, multistore.VariantMSMiso)
	if _, err := sys.Run("SELECT FROM nothing"); err == nil {
		t.Fatal("invalid SQL accepted")
	}
	if sys.Metrics().Queries != 0 || len(sys.Reports()) != 0 {
		t.Error("failed query mutated metrics")
	}
	// The system still works afterwards.
	if _, err := sys.Run(workload.SQLs()[0]); err != nil {
		t.Fatal(err)
	}
	if sys.Metrics().Queries != 1 {
		t.Error("sequence number advanced by the failed query")
	}
}

func TestDesignExposure(t *testing.T) {
	sys := newSystem(t, multistore.VariantMSMiso)
	if _, err := sys.Run(workload.SQLs()[0]); err != nil {
		t.Fatal(err)
	}
	d := sys.Design()
	if d.HV.Len() == 0 {
		t.Error("design does not expose HV views")
	}
	// Every view definition in the design is a well-formed plan.
	for _, v := range d.HV.All() {
		if v.Def == nil || v.Def.Schema() == nil {
			t.Errorf("view %s has no definition/schema", v.Name)
		}
		v.Def.Walk(func(n *logical.Node) {
			if n.Schema() == nil && n.Kind != logical.KindScan {
				t.Errorf("view %s def node %v lacks a schema", v.Name, n.Kind)
			}
		})
	}
}
