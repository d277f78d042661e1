// Package bgwork implements the warehouse's own reporting workload for the
// Section 5.4 experiments: a TPC-DS-like star schema (store_sales fact,
// date_dim and item dimensions) loaded into DW permanent space, and the two
// reporting queries the paper uses to consume spare capacity — an IO-bound
// q3 analogue (scan + date filter + join + group) and a CPU-bound q83
// analogue (multi-way join with expression-heavy aggregation). Queries are
// built as logical plans over the loaded tables and executed by the DW
// engine, so their base latencies are measured, not assumed; the sim
// package's contention model then replays the multistore timeline against
// the measured profile.
package bgwork

import (
	"context"
	"fmt"
	"hash/fnv"
	"math/rand"

	"miso/internal/dw"
	"miso/internal/expr"
	"miso/internal/logical"
	"miso/internal/stats"
	"miso/internal/storage"
	"miso/internal/views"
)

// Table names in DW permanent space.
const (
	StoreSales = "bg_store_sales"
	DateDim    = "bg_date_dim"
	ItemDim    = "bg_item"
)

// Config sizes the reporting dataset.
type Config struct {
	Seed  int64
	Sales int
	Days  int
	Items int
	// ScaleFactor maps in-memory bytes to logical bytes, as for the logs.
	ScaleFactor float64
}

// DefaultConfig returns a small reporting mart whose logical size stands in
// for the paper's 1 TB TPC-DS load.
func DefaultConfig() Config {
	return Config{Seed: 13, Sales: 4000, Days: 365, Items: 200, ScaleFactor: 250000}
}

// Workload is the loaded reporting schema plus its two queries.
type Workload struct {
	store *dw.Store

	salesSchema *storage.Schema
	dateSchema  *storage.Schema
	itemSchema  *storage.Schema
}

// Load builds the star schema and installs it in DW permanent space.
func Load(cfg Config, store *dw.Store, est *stats.Estimator) (*Workload, error) {
	if cfg.Sales <= 0 || cfg.Days <= 0 || cfg.Items <= 0 {
		return nil, fmt.Errorf("bgwork: config must be positive")
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	w := &Workload{store: store}

	w.dateSchema = storage.MustSchema(
		storage.Column{Name: "d_date_sk", Type: storage.KindInt},
		storage.Column{Name: "d_year", Type: storage.KindInt},
		storage.Column{Name: "d_moy", Type: storage.KindInt},
	)
	dates := storage.NewTable(DateDim, w.dateSchema)
	dates.ScaleFactor = cfg.ScaleFactor
	for d := 0; d < cfg.Days; d++ {
		dates.MustAppend(storage.Row{
			storage.IntValue(int64(d)),
			storage.IntValue(int64(2012 + d/365)),
			storage.IntValue(int64(d/30%12 + 1)),
		})
	}

	w.itemSchema = storage.MustSchema(
		storage.Column{Name: "i_item_sk", Type: storage.KindInt},
		storage.Column{Name: "i_brand", Type: storage.KindString},
		storage.Column{Name: "i_category", Type: storage.KindString},
	)
	items := storage.NewTable(ItemDim, w.itemSchema)
	items.ScaleFactor = cfg.ScaleFactor
	for i := 0; i < cfg.Items; i++ {
		items.MustAppend(storage.Row{
			storage.IntValue(int64(i)),
			storage.StringValue(fmt.Sprintf("brand_%02d", i%40)),
			storage.StringValue(fmt.Sprintf("cat_%d", i%10)),
		})
	}

	w.salesSchema = storage.MustSchema(
		storage.Column{Name: "ss_sold_date_sk", Type: storage.KindInt},
		storage.Column{Name: "ss_item_sk", Type: storage.KindInt},
		storage.Column{Name: "ss_quantity", Type: storage.KindInt},
		storage.Column{Name: "ss_ext_sales_price", Type: storage.KindFloat},
	)
	sales := storage.NewTable(StoreSales, w.salesSchema)
	sales.ScaleFactor = cfg.ScaleFactor
	for i := 0; i < cfg.Sales; i++ {
		sales.MustAppend(storage.Row{
			storage.IntValue(int64(rng.Intn(cfg.Days))),
			storage.IntValue(int64(rng.Intn(cfg.Items))),
			storage.IntValue(int64(1 + rng.Intn(20))),
			storage.FloatValue(rng.Float64() * 500),
		})
	}

	for _, t := range []*storage.Table{dates, items, sales} {
		// The content checksum is stamped at load so the integrity scrubber
		// can verify these tables like any opportunistic view. Sig is no
		// plan node's signature, so ID (a hash of Sig) is no node's id and
		// the exact tier never offers the table for a ViewScan of itself.
		def := logical.NewViewScan(t.Name, t.Schema)
		sig := "bgtable(" + t.Name + ")"
		id := fnv.New64a()
		id.Write([]byte(sig))
		store.Views.Add(&views.View{
			Name:     t.Name,
			Sig:      sig,
			ID:       id.Sum64(),
			Def:      def,
			Desc:     logical.DescribeView(def),
			Table:    t,
			Checksum: storage.ChecksumTable(t),
		})
		est.RecordView(t.Name, stats.Stat{Rows: int64(t.NumRows()), Bytes: t.LogicalBytes()})
	}
	return w, nil
}

func colRef(n string) expr.Expr { return &expr.ColRef{Name: n} }
func intC(i int64) expr.Expr    { return &expr.Const{Val: storage.IntValue(i)} }

// Q3Plan is the IO-bound reporting query (TPC-DS q3 analogue): scan the
// fact table, filter the join to a sales month, and report revenue by year
// and brand.
func (w *Workload) Q3Plan() (*logical.Node, error) {
	salesScan := logical.NewViewScan(StoreSales, w.salesSchema)
	dateScan := logical.NewViewScan(DateDim, w.dateSchema)
	dateFilter, err := logical.NewFilterNode(dateScan, &expr.BinOp{
		Op: "=", L: colRef("d_moy"), R: intC(11),
	})
	if err != nil {
		return nil, err
	}
	sch, err := salesScan.Schema().Concat(dateFilter.Schema(), "r_")
	if err != nil {
		return nil, err
	}
	join := logical.NewNode(logical.Node{
		Kind:      logical.KindJoin,
		Children:  []*logical.Node{salesScan, dateFilter},
		JoinType:  logical.JoinInner,
		LeftKeys:  []string{"ss_sold_date_sk"},
		RightKeys: []string{"d_date_sk"},
	}, sch)
	return newAgg(join,
		[]logical.Proj{{Expr: colRef("d_year"), Name: "d_year"}},
		[]logical.AggSpec{
			{Func: "SUM", Arg: colRef("ss_ext_sales_price"), Name: "revenue"},
		})
}

// Q83Plan is the CPU-bound reporting query (TPC-DS q83 analogue): a
// three-way join with expression-heavy grouped aggregation.
func (w *Workload) Q83Plan() (*logical.Node, error) {
	salesScan := logical.NewViewScan(StoreSales, w.salesSchema)
	dateScan := logical.NewViewScan(DateDim, w.dateSchema)
	itemScan := logical.NewViewScan(ItemDim, w.itemSchema)
	s1, err := salesScan.Schema().Concat(dateScan.Schema(), "r_")
	if err != nil {
		return nil, err
	}
	j1 := logical.NewNode(logical.Node{
		Kind:      logical.KindJoin,
		Children:  []*logical.Node{salesScan, dateScan},
		JoinType:  logical.JoinInner,
		LeftKeys:  []string{"ss_sold_date_sk"},
		RightKeys: []string{"d_date_sk"},
	}, s1)
	s2, err := j1.Schema().Concat(itemScan.Schema(), "r_")
	if err != nil {
		return nil, err
	}
	j2 := logical.NewNode(logical.Node{
		Kind:      logical.KindJoin,
		Children:  []*logical.Node{j1, itemScan},
		JoinType:  logical.JoinInner,
		LeftKeys:  []string{"ss_item_sk"},
		RightKeys: []string{"i_item_sk"},
	}, s2)
	// Expression-heavy aggregate argument: quantity-weighted price.
	weighted := &expr.BinOp{Op: "*",
		L: colRef("ss_ext_sales_price"),
		R: &expr.BinOp{Op: "/", L: colRef("ss_quantity"), R: intC(10)},
	}
	return newAgg(j2,
		[]logical.Proj{
			{Expr: colRef("i_brand"), Name: "i_brand"},
			{Expr: colRef("d_moy"), Name: "d_moy"},
		},
		[]logical.AggSpec{
			{Func: "SUM", Arg: weighted, Name: "weighted_rev"},
			{Func: "AVG", Arg: colRef("ss_quantity"), Name: "avg_qty"},
		})
}

func newAgg(child *logical.Node, groups []logical.Proj, aggs []logical.AggSpec) (*logical.Node, error) {
	cols := make([]storage.Column, 0, len(groups)+len(aggs))
	for _, g := range groups {
		t, err := expr.TypeOf(g.Expr, child.Schema())
		if err != nil {
			return nil, err
		}
		cols = append(cols, storage.Column{Name: g.Name, Type: t})
	}
	for i, a := range aggs {
		t := storage.KindFloat
		if a.Func == "COUNT" {
			t = storage.KindInt
		}
		if _, err := expr.TypeOf(a.Arg, child.Schema()); err != nil {
			return nil, err
		}
		aggs[i].Name = a.Name
		cols = append(cols, storage.Column{Name: a.Name, Type: t})
	}
	sch, err := storage.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	return logical.NewNode(logical.Node{Kind: logical.KindAggregate, Children: []*logical.Node{child},
		GroupBy: groups, Aggs: aggs}, sch), nil
}

// MeasureLatencies executes both reporting queries in DW and returns their
// simulated latencies in seconds.
func (w *Workload) MeasureLatencies() (q3, q83 float64, err error) {
	p3, err := w.Q3Plan()
	if err != nil {
		return 0, 0, err
	}
	r3, err := w.store.ExecuteContext(context.Background(), p3)
	if err != nil {
		return 0, 0, fmt.Errorf("bgwork: q3: %w", err)
	}
	p83, err := w.Q83Plan()
	if err != nil {
		return 0, 0, err
	}
	r83, err := w.store.ExecuteContext(context.Background(), p83)
	if err != nil {
		return 0, 0, fmt.Errorf("bgwork: q83: %w", err)
	}
	return r3.Seconds, r83.Seconds, nil
}
