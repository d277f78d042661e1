package views_test

import (
	"fmt"
	"testing"

	"miso/internal/logical"
	"miso/internal/views"
)

// warmDesign builds a 67-view set shaped like the design a warm served
// system holds: selections over two logs at many thresholds, a join
// skeleton, and aggregates (which match on the exact tier only).
func warmDesign(tb testing.TB, f *fixture) *views.Set {
	tb.Helper()
	var sqls []string
	for i := 0; i < 20; i++ {
		sqls = append(sqls, fmt.Sprintf("SELECT tweet_id FROM tweets WHERE retweets > %d", i*25))
		if i%2 == 0 {
			sqls = append(sqls, fmt.Sprintf("SELECT tweet_id FROM tweets WHERE retweets > %d AND lang = 'en'", i*25))
		}
	}
	for i := 0; i < 12; i++ {
		sqls = append(sqls,
			fmt.Sprintf("SELECT checkin_id FROM checkins WHERE category = 'c%d'", i),
			fmt.Sprintf("SELECT c.checkin_id FROM checkins c JOIN landmarks l ON c.venue_id = l.venue_id WHERE l.rating >= %d.5", i))
	}
	for i := 0; i < 13; i++ {
		sqls = append(sqls, fmt.Sprintf("SELECT lang, COUNT(*) AS n FROM tweets WHERE retweets > %d GROUP BY lang", i*50))
	}
	set := views.NewSet()
	for _, sql := range sqls {
		set.Add(f.makeView(tb, sql))
	}
	if set.Len() != 67 {
		tb.Fatalf("warm design holds %d views, want 67", set.Len())
	}
	return set
}

// warmProbes returns every node of five plans which, against warmDesign,
// give a few exact hits, a few nodes several views subsume, and mostly
// misses, as on a served system.
func warmProbes(tb testing.TB, f *fixture) []*logical.Node {
	var probes []*logical.Node
	for _, sql := range []string{
		"SELECT user_id FROM tweets WHERE retweets > 100",
		"SELECT tweet_id FROM tweets WHERE retweets > 110 AND retweets > 100 AND lang = 'en'",
		"SELECT c.user_id FROM checkins c JOIN landmarks l ON c.venue_id = l.venue_id WHERE l.rating >= 3.5 AND c.category = 'bar'",
		"SELECT lang, COUNT(*) AS n FROM tweets WHERE retweets > 100 GROUP BY lang",
		"SELECT l.city, COUNT(*) AS n FROM landmarks l GROUP BY l.city",
	} {
		probes = append(probes, f.corePlan(tb, sql).Nodes()...)
	}
	return probes
}

// BenchmarkBestMatch measures view matching against a populated design —
// the optimizer's hottest path (called for every node of every enumerated
// plan during what-if costing). One iteration looks up every warm probe.
func BenchmarkBestMatch(b *testing.B) {
	f := newFixture(b)
	set := warmDesign(b, f)
	probes := warmProbes(b, f)
	var exact, subsumed int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exact, subsumed = 0, 0
		for _, n := range probes {
			if m, ok := set.BestMatch(n); ok && m.Exact {
				exact++
			} else if ok {
				subsumed++
			}
		}
	}
	if exact == 0 || subsumed == 0 || exact+subsumed == len(probes) {
		b.Fatalf("%d probes: %d exact, %d subsumed; want some of each and some misses", len(probes), exact, subsumed)
	}
}

// TestBestMatchAllocsIndependentOfSetSize guards the single description:
// a lookup no view answers allocates the same on an 8-view design as on
// the 67-view warm design, where describing the node per view, or sorting
// the set per call, would allocate in proportion to the set.
func TestBestMatchAllocsIndependentOfSetSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	f := newFixture(t)
	warm := warmDesign(t, f)
	small := views.NewSet()
	for _, v := range warm.All()[:8] {
		small.Add(v)
	}
	n := f.corePlan(t, "SELECT l.city FROM landmarks l WHERE l.rating >= 2.5")
	if m, ok := warm.BestMatch(n); ok {
		t.Fatalf("%s answers the probe", m.View.Name)
	}
	allocs := func(s *views.Set) float64 {
		return testing.AllocsPerRun(50, func() { s.BestMatch(n) })
	}
	if a8, a67 := allocs(small), allocs(warm); a8 != a67 {
		t.Fatalf("BestMatch allocates %.0f times over 8 views, %.0f over 67", a8, a67)
	}
}

// BenchmarkMatchNodeExact measures the cheap path: id equality.
func BenchmarkMatchNodeExact(b *testing.B) {
	f := newFixture(b)
	v := f.makeView(b, "SELECT tweet_id FROM tweets WHERE lang = 'en'")
	n := f.corePlan(b, "SELECT user_id FROM tweets WHERE lang = 'en'")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m, ok := views.MatchNode(n, v); !ok || !m.Exact {
			b.Fatal("no exact match")
		}
	}
}
