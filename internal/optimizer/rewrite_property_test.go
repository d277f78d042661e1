package optimizer_test

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"miso/internal/exec"
	"miso/internal/optimizer"
	"miso/internal/storage"
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

	langs := []string{"en", "es", "ja"}
	thresholds := []int{50, 100, 200, 400}
	rewrites := 0
	for trial := 0; trial < 60; trial++ {
		var sql string
		switch rng.Intn(4) {
		case 0:
			sql = fmt.Sprintf("SELECT tweet_id FROM tweets WHERE retweets > %d",
				thresholds[rng.Intn(len(thresholds))])
		case 1:
			sql = fmt.Sprintf("SELECT tweet_id FROM tweets WHERE retweets > %d AND lang = '%s'",
				thresholds[rng.Intn(len(thresholds))], langs[rng.Intn(len(langs))])
		case 2:
			sql = fmt.Sprintf(`SELECT l.city, COUNT(*) AS n FROM checkins c
				JOIN landmarks l ON c.venue_id = l.venue_id
				WHERE c.category = '%s' GROUP BY l.city`,
				[]string{"bar", "cafe", "restaurant"}[rng.Intn(3)])
		default:
			sql = fmt.Sprintf("SELECT lang, COUNT(*) AS n FROM tweets WHERE retweets > %d GROUP BY lang",
				thresholds[rng.Intn(len(thresholds))])
		}
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

// TestMaxPlansCapsEnumeration bounds the planner on a deep plan.
func TestMaxPlansCapsEnumeration(t *testing.T) {
	f := setup(t)
	f.opt.SetPlanCap(4)
	p := f.plan(t, `SELECT l.city, COUNT(*) AS n FROM tweets t
		JOIN checkins c ON t.user_id = c.user_id
		JOIN landmarks l ON c.venue_id = l.venue_id
		WHERE t.lang = 'en' GROUP BY l.city ORDER BY n DESC LIMIT 5`)
	plans := f.opt.EnumeratePlans(p, optimizer.EmptyDesign())
	if len(plans) > 5 { // HV-only + at most the cap's splits
		t.Errorf("enumerated %d plans under a cap of 4", len(plans))
	}
	if _, err := f.opt.Choose(p, optimizer.EmptyDesign()); err != nil {
		t.Fatal(err)
	}
}
