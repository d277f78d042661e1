package logical

import (
	"fmt"
	"math/rand"
	"testing"

	"miso/internal/data"
)

// GeneratedSQL draws count structured pseudo-random queries over the three
// logs from seed: joins, pushed and residual predicates, UDF calls,
// aggregates with HAVING, ORDER BY and LIMIT. Some do not build (a join key
// or UDF that does not resolve); callers keep the ones that do.
func GeneratedSQL(seed int64, count int) []string {
	rng := rand.New(rand.NewSource(seed))
	tables := []string{"tweets", "checkins", "landmarks"}
	cols := map[string][]string{
		"tweets":    {"tweet_id", "user_id", "ts", "text", "hashtag", "lang", "retweets", "followers"},
		"checkins":  {"checkin_id", "user_id", "ts", "venue_id", "lat", "lon", "category"},
		"landmarks": {"venue_id", "name", "city", "category", "rating"},
	}
	pick := func(ss []string) string { return ss[rng.Intn(len(ss))] }

	genPred := func(alias, table string) string {
		c := alias + "." + pick(cols[table])
		switch rng.Intn(5) {
		case 0:
			return fmt.Sprintf("%s > %d", c, rng.Intn(1000))
		case 1:
			return fmt.Sprintf("%s = 'x%d'", c, rng.Intn(5))
		case 2:
			return fmt.Sprintf("%s IS NOT NULL", c)
		case 3:
			return fmt.Sprintf("%s IN (1, 2, %d)", c, rng.Intn(9))
		default:
			return fmt.Sprintf("SENTIMENT(%s.text) > 0", alias) // may not resolve; errors are fine
		}
	}

	sqls := make([]string, count)
	for trial := range sqls {
		ta := pick(tables)
		sql := fmt.Sprintf("SELECT a.%s FROM %s a", pick(cols[ta]), ta)
		if rng.Intn(2) == 0 {
			tb := pick(tables)
			sql += fmt.Sprintf(" JOIN %s b ON a.%s = b.%s",
				tb, pick(cols[ta]), pick(cols[tb]))
		}
		if rng.Intn(2) == 0 {
			sql += " WHERE " + genPred("a", ta)
			if rng.Intn(2) == 0 {
				sql += " AND " + genPred("a", ta)
			}
		}
		if rng.Intn(3) == 0 {
			sql = fmt.Sprintf("SELECT a.%s, COUNT(*) AS n FROM %s a GROUP BY a.%s",
				pick(cols[ta]), ta, pick(cols[ta]))
			if rng.Intn(2) == 0 {
				sql += " HAVING COUNT(*) > 1 ORDER BY n DESC LIMIT 5"
			}
		}
		sqls[trial] = sql
	}
	return sqls
}

// TestBuilderRobustOnGeneratedSQL builds a few thousand generated queries
// over the real catalog. Every input must either fail with an error or
// produce a plan whose schema is fully resolved — never a panic.
func TestBuilderRobustOnGeneratedSQL(t *testing.T) {
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := NewBuilder(cat)

	built, failed := 0, 0
	for _, sql := range GeneratedSQL(5, 3000) {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic on %q: %v", sql, r)
				}
			}()
			plan, err := b.BuildSQL(sql)
			if err != nil {
				failed++
				return
			}
			built++
			// A successful build must yield a resolved schema everywhere.
			plan.Walk(func(n *Node) {
				if n.Schema() == nil {
					t.Fatalf("nil schema in plan for %q", sql)
				}
			})
			// The signature and id must be computable and stable. The
			// generator writes no stacked filters and no identity
			// projections, so Normalize keeps the plan's shape, and its copy
			// recomputes every signature and id anew.
			if norm := Normalize(plan); plan.Signature() != norm.Signature() || plan.ID() != norm.ID() {
				t.Fatalf("unstable signature or id for %q", sql)
			}
		}()
	}
	if built == 0 {
		t.Fatal("generator produced no valid queries")
	}
	t.Logf("built %d plans, rejected %d queries", built, failed)
}
