package optimizer_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"miso/internal/exec"
	"miso/internal/logical"
	"miso/internal/optimizer"
	"miso/internal/storage"
	"miso/internal/workload"
)

func fingerprint(t *storage.Table) string {
	rows := make([]string, 0, t.NumRows())
	for _, r := range t.Rows {
		var sb strings.Builder
		for _, v := range r {
			sb.WriteString(v.String())
			sb.WriteByte('|')
		}
		rows = append(rows, sb.String())
	}
	sort.Strings(rows)
	return strings.Join(rows, "\n")
}

// TestRewriteWithViewsPreservesSemantics is the view-rewriting soundness
// property: for randomly generated queries, executing the plan rewritten
// against a populated view set must return exactly the rows of the raw
// plan. Views are real materializations from earlier (randomly chosen)
// queries, so exact matches, subsumption matches with residual filters,
// and no-matches all occur.
func TestRewriteWithViewsPreservesSemantics(t *testing.T) {
	f := setup(t)
	rng := rand.New(rand.NewSource(17))

	// Populate the store with views by running a spread of queries.
	warm := []string{
		"SELECT lang, COUNT(*) AS n FROM tweets WHERE retweets > 100 GROUP BY lang",
		"SELECT lang, COUNT(*) AS n FROM tweets WHERE lang = 'en' GROUP BY lang",
		`SELECT l.city, COUNT(*) AS n FROM checkins c
			JOIN landmarks l ON c.venue_id = l.venue_id GROUP BY l.city`,
		`SELECT l.city, COUNT(*) AS n FROM checkins c
			JOIN landmarks l ON c.venue_id = l.venue_id
			WHERE c.category = 'bar' GROUP BY l.city`,
	}
	for i, sql := range warm {
		if _, err := f.hv.ExecuteContext(context.Background(), f.plan(t, sql), i); err != nil {
			t.Fatal(err)
		}
	}
	if f.hv.Views.Len() == 0 {
		t.Fatal("no views")
	}

	rewrites := 0
	for trial := 0; trial < 60; trial++ {
		sql := generatedSQL(rng)
		raw := f.plan(t, sql)
		rewritten := optimizer.RewriteWithViews(raw, f.hv.Views)
		if rewritten != raw {
			rewrites++
		}
		env := f.hv.Env()
		want, err := exec.Run(raw, &exec.Env{ReadLog: env.ReadLog})
		if err != nil {
			t.Fatalf("raw %q: %v", sql, err)
		}
		got, err := exec.Run(rewritten, env)
		if err != nil {
			t.Fatalf("rewritten %q: %v", sql, err)
		}
		if fingerprint(got) != fingerprint(want) {
			t.Fatalf("rewrite changed results for %q\nplan:\n%s", sql, rewritten)
		}
	}
	if rewrites == 0 {
		t.Error("no query was ever rewritten; property vacuous")
	}
	t.Logf("%d of 60 queries used views", rewrites)
}

// generatedSQL draws one of the property tests' generated queries.
func generatedSQL(rng *rand.Rand) string {
	langs := []string{"en", "es", "ja"}
	thresholds := []int{50, 100, 200, 400}
	switch rng.Intn(4) {
	case 0:
		return fmt.Sprintf("SELECT tweet_id FROM tweets WHERE retweets > %d",
			thresholds[rng.Intn(len(thresholds))])
	case 1:
		return fmt.Sprintf("SELECT tweet_id FROM tweets WHERE retweets > %d AND lang = '%s'",
			thresholds[rng.Intn(len(thresholds))], langs[rng.Intn(len(langs))])
	case 2:
		return fmt.Sprintf(`SELECT l.city, COUNT(*) AS n FROM checkins c
			JOIN landmarks l ON c.venue_id = l.venue_id
			WHERE c.category = '%s' GROUP BY l.city`,
			[]string{"bar", "cafe", "restaurant"}[rng.Intn(3)])
	default:
		return fmt.Sprintf("SELECT lang, COUNT(*) AS n FROM tweets WHERE retweets > %d GROUP BY lang",
			thresholds[rng.Intn(len(thresholds))])
	}
}

// deepJoin is the deep plan the plan cap is tried on.
const deepJoin = `SELECT l.city, COUNT(*) AS n FROM tweets t
	JOIN checkins c ON t.user_id = c.user_id
	JOIN landmarks l ON c.venue_id = l.venue_id
	WHERE t.lang = 'en' GROUP BY l.city ORDER BY n DESC LIMIT 5`

// TestMaxPlansCapsEnumeration bounds the planner on a deep plan.
func TestMaxPlansCapsEnumeration(t *testing.T) {
	f := setup(t)
	f.opt.SetPlanCap(4)
	p := f.plan(t, deepJoin)
	plans := f.opt.EnumeratePlans(p, optimizer.EmptyDesign())
	if len(plans) > 5 { // HV-only + at most the cap's splits
		t.Errorf("enumerated %d plans under a cap of 4", len(plans))
	}
	f.opt.Choose(p, optimizer.EmptyDesign())
}

// TestSplitsCoverEveryLeafWithoutUDF is the guard on what plan choice
// assumes of every frontier enumerateCuts lists, and no longer checks: it
// covers every leaf, and no node above its cuts calls a UDF. Under the
// empty design, for the 32 statements, the generated queries and the deep
// plan under the plan caps, every split EnumeratePlans lists must have a
// DW part whose leaves are exactly the scans of its cuts' working sets,
// and that calls no UDF.
func TestSplitsCoverEveryLeafWithoutUDF(t *testing.T) {
	f := setup(t)
	sqls := workload.SQLs()
	rng := rand.New(rand.NewSource(17))
	for range 60 {
		sqls = append(sqls, generatedSQL(rng))
	}
	check := func(what, sql string) {
		t.Helper()
		for _, mp := range f.opt.EnumeratePlans(f.plan(t, sql), optimizer.EmptyDesign())[1:] {
			var leaves, temps []string
			mp.DWPart.Walk(func(n *logical.Node) {
				if len(n.Children) > 0 {
					return
				}
				leaf := n.Kind.String() + " " + n.LogName
				if n.Kind == logical.KindViewScan {
					leaf = n.ViewName
				}
				leaves = append(leaves, leaf)
			})
			for _, c := range mp.Cuts {
				temps = append(temps, c.TempName)
			}
			slices.Sort(leaves)
			slices.Sort(temps)
			if !slices.Equal(leaves, temps) || mp.DWPart.UsesUDF() {
				t.Fatalf("%s %q: a split's DW part reads %v for the cuts' %v, calls a UDF: %v\n%s",
					what, sql, leaves, temps, mp.DWPart.UsesUDF(), mp.Explain())
			}
		}
	}
	for _, sql := range sqls {
		check("plan cap unset", sql)
	}
	for _, limit := range []int{3, 4} {
		f.opt.SetPlanCap(limit)
		check(fmt.Sprintf("plan cap %d", limit), deepJoin)
	}
}
