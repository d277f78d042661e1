package exec_test

import (
	"fmt"
	"strings"
	"testing"

	"miso/internal/data"
	"miso/internal/exec"
	"miso/internal/logical"
	"miso/internal/storage"
	"miso/internal/workload"
)

// replaceNodes returns n with every node match reports true for replaced by
// with(node); the replacement's subtree is not searched.
func replaceNodes(n *logical.Node, match func(*logical.Node) bool, with func(*logical.Node) *logical.Node) *logical.Node {
	if match(n) {
		return with(n)
	}
	if len(n.Children) == 0 {
		return n
	}
	kids := make([]*logical.Node, len(n.Children))
	for i, c := range n.Children {
		kids[i] = replaceNodes(c, match, with)
	}
	return n.WithChildren(kids)
}

// viewCatalog turns plan subtrees over a generated catalog into views of a
// chosen number of rows, the way DW holds what the tuner placed there.
type viewCatalog struct {
	tb     testing.TB
	cat    *storage.Catalog
	logEnv *exec.Env
	full   map[uint64]*storage.Table // materialized subtrees by node id
	tables map[string]*storage.Table
}

func newViewCatalog(tb testing.TB) *viewCatalog {
	tb.Helper()
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		tb.Fatal(err)
	}
	return &viewCatalog{
		tb:     tb,
		cat:    cat,
		logEnv: &exec.Env{ReadLog: func(name string) (*storage.LogFile, error) { return cat.Log(name) }},
		full:   map[uint64]*storage.Table{},
		tables: map[string]*storage.Table{},
	}
}

func (vc *viewCatalog) build(sql string) *logical.Node {
	vc.tb.Helper()
	plan, err := logical.NewBuilder(vc.cat).BuildSQL(sql)
	if err != nil {
		vc.tb.Fatalf("build %q: %v", sql, err)
	}
	return plan
}

// view materializes n and returns a ViewScan over its first rows rows.
func (vc *viewCatalog) view(n *logical.Node, rows int) *logical.Node {
	vc.tb.Helper()
	t, ok := vc.full[n.ID()]
	if !ok {
		var err error
		if t, err = exec.Run(n, vc.logEnv); err != nil {
			vc.tb.Fatal(err)
		}
		vc.full[n.ID()] = t
	}
	if len(t.Rows) < rows {
		vc.tb.Fatalf("%s yields %d rows, want at least %d", n.Kind, len(t.Rows), rows)
	}
	name := fmt.Sprintf("v%x_%d", n.ID(), rows)
	if _, ok := vc.tables[name]; !ok {
		v := storage.NewTable(name, t.Schema)
		v.ScaleFactor = t.ScaleFactor
		for _, r := range t.Rows[:rows] {
			v.MustAppend(r)
		}
		vc.tables[name] = v
	}
	return logical.NewViewScan(name, t.Schema)
}

// overViews builds sql and replaces its Extracts, in plan order, by views
// of rows[0], rows[1], ... rows.
func (vc *viewCatalog) overViews(sql string, rows ...int) *logical.Node {
	vc.tb.Helper()
	i := 0
	plan := replaceNodes(vc.build(sql),
		func(n *logical.Node) bool { return n.Kind == logical.KindExtract },
		func(n *logical.Node) *logical.Node {
			i++
			return vc.view(n, rows[i-1])
		})
	if i != len(rows) {
		vc.tb.Fatalf("%q has %d extracts, %d view sizes given", sql, i, len(rows))
	}
	return plan
}

func (vc *viewCatalog) env(workers, morselRows int) *exec.Env {
	return &exec.Env{
		ReadView: func(name string) (*storage.Table, error) {
			if t, ok := vc.tables[name]; ok {
				return t, nil
			}
			return nil, fmt.Errorf("no view %q", name)
		},
		Workers:    workers,
		MorselRows: morselRows,
	}
}

// smallViewPlans returns the two plans the small-input allocation guard and
// benchmark run, and an Env that resolves their views. The first is query
// A1v1 as DW runs it once the tuner has placed its join there:
// sort(project(agg)) over a 13-row view of the three-way join's 21
// columns. The second joins a 63-row checkins view to a 13-row landmarks
// view.
func smallViewPlans(tb testing.TB) ([]*logical.Node, *exec.Env) {
	tb.Helper()
	vc := newViewCatalog(tb)
	// The small catalog holds too few rows in A1v1's three-day window; two
	// weeks give the join the same schema and enough rows.
	a1v1 := strings.ReplaceAll(workload.Evolving()[0].SQL, "1357516800", "1358467200")
	agg := replaceNodes(vc.build(a1v1),
		func(n *logical.Node) bool { return n.Kind == logical.KindJoin },
		func(n *logical.Node) *logical.Node { return vc.view(n, 13) })
	join := vc.overViews("SELECT c.user_id, l.city FROM checkins c JOIN landmarks l ON c.venue_id = l.venue_id", 63, 13)
	return []*logical.Node{agg, join}, vc.env(0, 0)
}

// TestOneMorselInputStartsNoGoroutine pins the small-input schedule: an
// operator whose input fits one morsel runs every phase on the calling
// goroutine, at any worker setting. A two-morsel input still fans out, so
// the hook is known to see the pools it counts.
func TestOneMorselInputStartsNoGoroutine(t *testing.T) {
	vc := newViewCatalog(t)
	const mr = 64
	type probe struct {
		sql  string
		rows []int
	}
	probes := []probe{
		{"SELECT lang, COUNT(*) AS n, AVG(retweets) AS r FROM tweets WHERE retweets > 1 GROUP BY lang", []int{mr}},
		{"SELECT retweets * 2 AS dbl, UPPER(lang) AS lg FROM tweets WHERE lang = 'en'", []int{mr}},
		{"SELECT lang, retweets FROM tweets ORDER BY lang, retweets DESC", []int{mr}},
		{"SELECT DISTINCT lang, hashtag FROM tweets", []int{mr}},
		{"SELECT t.tweet_id, c.lat FROM tweets t JOIN checkins c ON t.user_id = c.user_id", []int{mr / 2, mr / 2}},
	}
	// Build every plan first: materializing the views runs pools of its own.
	small := make([]*logical.Node, len(probes))
	for i, p := range probes {
		small[i] = vc.overViews(p.sql, p.rows...)
	}
	twoMorsels := vc.overViews(probes[4].sql, mr/2, mr/2+1) // the join's input is both sides
	plans, env := smallViewPlans(t)

	pools := exec.CountPools(t)
	for _, workers := range []int{0, 2, 8} {
		for i, plan := range small {
			if _, err := exec.Run(plan, vc.env(workers, mr)); err != nil {
				t.Fatal(err)
			}
			if n := pools.Swap(0); n != 0 {
				t.Errorf("workers=%d: %q over one morsel started %d goroutine pools", workers, probes[i].sql, n)
			}
		}
	}
	for _, plan := range plans {
		if _, err := exec.Run(plan, env); err != nil {
			t.Fatal(err)
		}
		if n := pools.Swap(0); n != 0 {
			t.Errorf("small view plan started %d goroutine pools:\n%s", n, plan)
		}
	}
	if _, err := exec.Run(twoMorsels, vc.env(2, mr)); err != nil {
		t.Fatal(err)
	}
	if pools.Load() == 0 {
		t.Error("a two-morsel join started no goroutine pool at workers=2")
	}
}
