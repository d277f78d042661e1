package views_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"miso/internal/exec"
	"miso/internal/logical"
	"miso/internal/storage"
	"miso/internal/views"
)

// matchPool is the material the index property test draws from: plan cores
// of three SPJ skeletons under every subset of their conjuncts (so the pool
// holds exact twins, subsuming and stricter definitions of one skeleton),
// two aggregates (non-Simple: exact tier only), and tables of three sizes
// that views share, so equal-size ties occur and the name must decide.
type matchPool struct {
	defs   []*logical.Node
	probes []*logical.Node
	tables []*storage.Table
}

func newMatchPool(t *testing.T, f *fixture) *matchPool {
	t.Helper()
	p := &matchPool{}
	skeletons := []struct {
		from  string
		conjs []string
	}{
		{"SELECT tweet_id FROM tweets", []string{"lang = 'en'", "retweets > 100", "retweets > 50"}},
		{"SELECT checkin_id FROM checkins", []string{"category = 'bar'", "category = 'cafe'"}},
		{"SELECT c.checkin_id FROM checkins c JOIN landmarks l ON c.venue_id = l.venue_id",
			[]string{"c.category = 'bar'", "l.rating >= 3.0"}},
	}
	for _, sk := range skeletons {
		for mask := 0; mask < 1<<len(sk.conjs); mask++ {
			var where []string
			for i, c := range sk.conjs {
				if mask&(1<<i) != 0 {
					where = append(where, c)
				}
			}
			sql := sk.from
			if len(where) > 0 {
				sql += " WHERE " + strings.Join(where, " AND ")
			}
			p.defs = append(p.defs, f.corePlan(t, sql))
		}
	}
	for _, sql := range []string{
		"SELECT lang, COUNT(*) AS n FROM tweets GROUP BY lang",
		"SELECT lang, COUNT(*) AS n FROM tweets WHERE retweets > 100 GROUP BY lang",
	} {
		plan, err := f.b.BuildSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		p.defs = append(p.defs, plan.Child(0))
	}
	// Probe every definition and every subtree below it, each from a
	// separately built plan so probes and definitions share no node.
	for _, d := range p.defs {
		p.probes = append(p.probes, d.Clone().Nodes()...)
	}
	for _, sql := range []string{
		"SELECT tweet_id FROM tweets WHERE lang = 'en' AND retweets > 100",
		"SELECT tweet_id FROM tweets WHERE lang = 'en'",
		"SELECT checkin_id FROM checkins WHERE category = 'bar'",
	} {
		tbl, err := exec.Run(f.corePlan(t, sql), f.env)
		if err != nil {
			t.Fatal(err)
		}
		p.tables = append(p.tables, tbl)
	}
	return p
}

// view draws a definition and a table; one view in six is ExactOnly.
func (p *matchPool) view(rng *rand.Rand) *views.View {
	v := views.New(p.defs[rng.Intn(len(p.defs))], p.tables[rng.Intn(len(p.tables))], 0)
	v.ExactOnly = rng.Intn(6) == 0
	return v
}

// mutate applies one random membership operation to s and names it.
func (p *matchPool) mutate(rng *rand.Rand, s *views.Set) string {
	switch op := rng.Intn(10); {
	case op < 5:
		s.Add(p.view(rng))
		return "add"
	case op < 8:
		// Remove must make the index forget the view.
		if all := s.All(); len(all) > 0 {
			s.Remove(all[rng.Intn(len(all))].Name)
		}
		return "remove"
	case op < 9:
		src := views.NewSet()
		for i := rng.Intn(8); i > 0; i-- {
			src.Add(p.view(rng))
		}
		s.ReplaceAll(src)
		return "replace"
	default:
		s.Reset()
		return "reset"
	}
}

func describeMatch(m *views.Match, ok bool) string {
	if !ok {
		return "no match"
	}
	res := make([]string, len(m.Residual))
	for i, r := range m.Residual {
		res[i] = r.Canon()
	}
	return fmt.Sprintf("%s exact=%v residual=%v out=%v", m.View.Name, m.Exact, res, m.OutCols)
}

// TestBestMatchEqualsReferenceScan drives random Add / Remove / ReplaceAll /
// Reset sequences over sets drawn from the pool and, after every step,
// requires the indexed BestMatch to return what the reference scan returns
// for every probe: same view, same tier, same residual, same columns.
func TestBestMatchEqualsReferenceScan(t *testing.T) {
	f := newFixture(t)
	p := newMatchPool(t, f)
	var exact, subsumed, missed int
	check := func(step string, s *views.Set) {
		t.Helper()
		for _, n := range p.probes {
			got, gok := s.BestMatch(n)
			want, wok := views.BestMatchReference(s, n)
			if g, w := describeMatch(got, gok), describeMatch(want, wok); g != w || gok && got.View != want.View {
				t.Fatalf("%s: %s\n index: %s\n  scan: %s", step, n.Signature(), g, w)
			}
			switch {
			case !gok:
				missed++
			case got.Exact:
				exact++
			default:
				subsumed++
			}
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := views.NewSet()
		for step := 0; step < 40; step++ {
			label := fmt.Sprintf("seed %d step %d (%s)", seed, step, p.mutate(rng, s))
			check(label, s)
			check(label+", cloned", s.Clone())
		}
	}
	if exact == 0 || subsumed == 0 || missed == 0 {
		t.Fatalf("generator is lopsided: %d exact, %d subsumed, %d missed", exact, subsumed, missed)
	}
}

// TestBestMatchTieBreaksByName pins the tie the scan's name order used to
// settle: two subsuming views of equal size, the least name wins whichever
// was added first.
func TestBestMatchTieBreaksByName(t *testing.T) {
	f := newFixture(t)
	p := newMatchPool(t, f)
	a := views.New(f.corePlan(t, "SELECT tweet_id FROM tweets WHERE lang = 'en'"), p.tables[0], 0)
	b := views.New(f.corePlan(t, "SELECT tweet_id FROM tweets WHERE retweets > 100"), p.tables[0], 0)
	want := a
	if b.Name < a.Name {
		want = b
	}
	n := f.corePlan(t, "SELECT tweet_id FROM tweets WHERE lang = 'en' AND retweets > 100")
	for _, order := range [][]*views.View{{a, b}, {b, a}} {
		s := views.NewSet()
		for _, v := range order {
			s.Add(v)
		}
		m, ok := s.BestMatch(n)
		if !ok || m.Exact || m.View != want {
			t.Fatalf("added %s then %s: got %s, want %s", order[0].Name, order[1].Name, describeMatch(m, ok), want.Name)
		}
	}
}

// TestBestMatchConcurrentWithMutation: lookups read the name map and the
// skeleton index under the set's lock, so sessions may match while the
// design changes under them (run under -race). Probes are prewarmed the way
// the tuner prewarms plans it shares between workers.
func TestBestMatchConcurrentWithMutation(t *testing.T) {
	f := newFixture(t)
	p := newMatchPool(t, f)
	for _, n := range p.probes {
		n.PrewarmSignatures()
	}
	s := views.NewSet()
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				for _, n := range p.probes {
					if m, ok := s.BestMatch(n); ok && m.View == nil {
						t.Error("match without a view")
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(3))
	for step := 0; step < 300; step++ {
		p.mutate(rng, s)
	}
	close(done)
	wg.Wait()
}
