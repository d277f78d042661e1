package bgwork_test

import (
	"context"
	"testing"

	"miso/internal/bgwork"
	"miso/internal/data"
	"miso/internal/dw"
	"miso/internal/logical"
	"miso/internal/stats"
)

func load(t *testing.T) (*bgwork.Workload, *dw.Store) {
	t.Helper()
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	est := stats.NewEstimator(cat)
	store := dw.NewStore(est, 0)
	w, err := bgwork.Load(bgwork.DefaultConfig(), store, est)
	if err != nil {
		t.Fatal(err)
	}
	return w, store
}

func TestLoadInstallsTables(t *testing.T) {
	_, store := load(t)
	for _, name := range []string{bgwork.StoreSales, bgwork.DateDim, bgwork.ItemDim} {
		if _, ok := store.Views.Get(name); !ok {
			t.Errorf("table %s not installed", name)
		}
	}
}

// TestMartTablesAnswerNoLookup pins what the mart's hand-assembled views
// have always answered: their Sig is bgtable(name), which is no plan node's
// signature, so even a ViewScan of the table itself matches none of them —
// not on the exact tier (their ID agrees with Sig, not with Def), and not
// by subsumption (a ViewScan is opaque).
func TestMartTablesAnswerNoLookup(t *testing.T) {
	_, store := load(t)
	for _, v := range store.Views.All() {
		if v.ID == 0 || v.ID == v.Def.ID() {
			t.Errorf("%s: ID %x, its ViewScan's %x", v.Name, v.ID, v.Def.ID())
		}
		if m, ok := store.Views.BestMatch(logical.NewViewScan(v.Name, v.Table.Schema)); ok {
			t.Errorf("a ViewScan of %s matched %s", v.Name, m.View.Name)
		}
	}
}

func TestQ3ProducesYearlyRevenue(t *testing.T) {
	w, store := load(t)
	p, err := w.Q3Plan()
	if err != nil {
		t.Fatal(err)
	}
	res, err := store.ExecuteContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() == 0 {
		t.Fatal("q3 returned nothing")
	}
	// One row per year with positive revenue.
	seen := map[int64]bool{}
	for _, r := range res.Table.Rows {
		if seen[r[0].I] {
			t.Errorf("duplicate year %d", r[0].I)
		}
		seen[r[0].I] = true
		if r[1].F <= 0 {
			t.Errorf("year %d: revenue %v", r[0].I, r[1])
		}
	}
}

func TestQ83GroupsByBrandAndMonth(t *testing.T) {
	w, store := load(t)
	p, err := w.Q83Plan()
	if err != nil {
		t.Fatal(err)
	}
	res, err := store.ExecuteContext(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Table.NumRows() == 0 {
		t.Fatal("q83 returned nothing")
	}
	if got := res.Table.Schema.Names(); got[0] != "i_brand" || got[1] != "d_moy" {
		t.Errorf("schema = %v", got)
	}
}

func TestMeasuredLatencyProfiles(t *testing.T) {
	w, _ := load(t)
	q3, q83, err := w.MeasureLatencies()
	if err != nil {
		t.Fatal(err)
	}
	if q3 <= 0 || q83 <= 0 {
		t.Fatalf("latencies %v %v", q3, q83)
	}
	// The three-way expression-heavy query costs at least as much as the
	// two-way scan query.
	if q83 < q3 {
		t.Errorf("q83 (%.3fs) cheaper than q3 (%.3fs)", q83, q3)
	}
}

func TestConfigValidation(t *testing.T) {
	cat, _ := data.Generate(data.SmallConfig())
	est := stats.NewEstimator(cat)
	store := dw.NewStore(est, 0)
	bad := bgwork.DefaultConfig()
	bad.Sales = 0
	if _, err := bgwork.Load(bad, store, est); err == nil {
		t.Error("zero sales accepted")
	}
}
