package views_test

import (
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"miso/internal/data"
	"miso/internal/exec"
	"miso/internal/logical"
	"miso/internal/storage"
	"miso/internal/views"
)

type fixture struct {
	cat *storage.Catalog
	b   *logical.Builder
	env *exec.Env
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := &fixture{cat: cat, b: logical.NewBuilder(cat)}
	f.env = &exec.Env{
		ReadLog: func(name string) (*storage.LogFile, error) { return cat.Log(name) },
	}
	return f
}

// makeView materializes the SPJ core (below the final projection) of a
// query as a view.
func (f *fixture) makeView(t testing.TB, sql string) *views.View {
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
	table, err := exec.Run(core, f.env)
	if err != nil {
		t.Fatal(err)
	}
	return views.New(core, table, 0)
}

func (f *fixture) corePlan(t testing.TB, sql string) *logical.Node {
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
	return core
}

func TestExactMatch(t *testing.T) {
	f := newFixture(t)
	v := f.makeView(t, "SELECT tweet_id FROM tweets WHERE lang = 'en'")
	n := f.corePlan(t, "SELECT user_id FROM tweets WHERE lang = 'en'")
	// Same filter, wide extract: the SPJ cores are identical.
	m, ok := views.MatchNode(n, v)
	if !ok || !m.Exact {
		t.Fatalf("expected exact match, got %+v ok=%v", m, ok)
	}
}

func TestSubsumptionMatchWithResidual(t *testing.T) {
	f := newFixture(t)
	v := f.makeView(t, "SELECT tweet_id FROM tweets WHERE lang = 'en'")
	n := f.corePlan(t, "SELECT tweet_id FROM tweets WHERE lang = 'en' AND retweets > 100")
	m, ok := views.MatchNode(n, v)
	if !ok {
		t.Fatal("no match")
	}
	if m.Exact {
		t.Fatal("should be subsumption, not exact")
	}
	if len(m.Residual) != 1 {
		t.Fatalf("residual = %d conjuncts", len(m.Residual))
	}

	// The rewrite must compute the same relation as the original.
	rw, err := m.Rewrite()
	if err != nil {
		t.Fatal(err)
	}
	env := &exec.Env{
		ReadLog: f.env.ReadLog,
		ReadView: func(name string) (*storage.Table, error) {
			if name != v.Name {
				t.Fatalf("unexpected view %q", name)
			}
			return v.Table, nil
		},
	}
	got, err := exec.Run(rw, env)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.Run(n, f.env)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != want.NumRows() {
		t.Errorf("rewrite rows = %d, want %d", got.NumRows(), want.NumRows())
	}
	if got.Schema.String() != want.Schema.String() {
		t.Errorf("rewrite schema %s, want %s", got.Schema, want.Schema)
	}
}

func TestNoMatchWhenViewStricter(t *testing.T) {
	f := newFixture(t)
	// View filters MORE than the query needs: cannot serve it.
	v := f.makeView(t, "SELECT tweet_id FROM tweets WHERE lang = 'en' AND retweets > 100")
	n := f.corePlan(t, "SELECT tweet_id FROM tweets WHERE lang = 'en'")
	if _, ok := views.MatchNode(n, v); ok {
		t.Error("stricter view matched weaker query")
	}
}

func TestNoMatchAcrossDifferentSources(t *testing.T) {
	f := newFixture(t)
	v := f.makeView(t, "SELECT checkin_id FROM checkins WHERE category = 'bar'")
	n := f.corePlan(t, "SELECT tweet_id FROM tweets WHERE lang = 'en'")
	if _, ok := views.MatchNode(n, v); ok {
		t.Error("checkins view matched tweets query")
	}
}

func TestJoinViewSubsumesRefinedJoin(t *testing.T) {
	f := newFixture(t)
	v := f.makeView(t, `SELECT c.checkin_id FROM checkins c
		JOIN landmarks l ON c.venue_id = l.venue_id WHERE c.category = 'bar'`)
	n := f.corePlan(t, `SELECT c.checkin_id FROM checkins c
		JOIN landmarks l ON c.venue_id = l.venue_id
		WHERE c.category = 'bar' AND l.rating >= 3.0`)
	m, ok := views.MatchNode(n, v)
	if !ok {
		t.Fatal("join view did not subsume refined join")
	}
	if m.Exact {
		t.Error("expected subsumption")
	}
}

func TestAggregateViewsMatchExactOnly(t *testing.T) {
	f := newFixture(t)
	plan, err := f.b.BuildSQL("SELECT lang, COUNT(*) AS n FROM tweets GROUP BY lang")
	if err != nil {
		t.Fatal(err)
	}
	agg := plan.Child(0) // aggregate below the projection
	table, err := exec.Run(agg, f.env)
	if err != nil {
		t.Fatal(err)
	}
	v := views.New(agg, table, 0)
	// Identical aggregate: exact.
	plan2, _ := f.b.BuildSQL("SELECT lang, COUNT(*) AS cnt FROM tweets GROUP BY lang")
	if m, ok := views.MatchNode(plan2.Child(0), v); !ok || !m.Exact {
		t.Error("identical aggregate should exact-match")
	}
	// Different grouping: no match.
	plan3, _ := f.b.BuildSQL("SELECT hashtag, COUNT(*) AS n FROM tweets GROUP BY hashtag")
	if _, ok := views.MatchNode(plan3.Child(0), v); ok {
		t.Error("different grouping matched")
	}
}

func TestSetOperations(t *testing.T) {
	f := newFixture(t)
	v1 := f.makeView(t, "SELECT tweet_id FROM tweets WHERE lang = 'en'")
	v2 := f.makeView(t, "SELECT checkin_id FROM checkins WHERE category = 'bar'")
	s := views.NewSet()
	s.Add(v1)
	s.Add(v2)
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	if s.TotalBytes() != v1.SizeBytes()+v2.SizeBytes() {
		t.Error("TotalBytes mismatch")
	}
	all := s.All()
	if len(all) != 2 || all[0].Name > all[1].Name {
		t.Error("All not sorted")
	}
	c := s.Clone()
	c.Remove(v1.Name)
	if !s.Has(v1.Name) || c.Has(v1.Name) {
		t.Error("clone not independent")
	}
}

// TestSetKeepsNameOrder applies Add, Remove, RemoveIf, Touch, Reset,
// ReplaceAll and Clone in turn and checks after each step that All() is the
// model's views in name order, that the slice All() returns is the caller's
// own, and that the set's Version moved exactly on the steps that wrote it
// (never on Touch).
func TestSetKeepsNameOrder(t *testing.T) {
	view := func(name string) *views.View { return &views.View{Name: name} }
	a, b, c, d, a2 := view("a"), view("b"), view("c"), view("d"), view("a")
	s, src := views.NewSet(), views.NewSet()
	src.Add(d)
	src.Add(b)
	model := map[string]*views.View{}
	var clone *views.Set
	// touch stamps a member through s and moves the model to the struct s
	// now holds: a new one unless the view already carried seq, and the
	// one held before keeps its recency either way.
	touch := func(name string, seq int) {
		held := model[name]
		was := held.LastUsedSeq
		if !s.Touch(name, seq) {
			t.Fatalf("Touch(%q) refused a member", name)
		}
		v, _ := s.Get(name)
		if v.LastUsedSeq != seq || held.LastUsedSeq != was || (v == held) != (was == seq) {
			t.Fatalf("Touch(%q, %d): set holds seq %d (the held struct: %v), held struct now %d",
				name, seq, v.LastUsedSeq, v == held, held.LastUsedSeq)
		}
		model[name] = v
	}
	steps := []struct {
		name  string
		moves bool // the step moves s.Version
		do    func()
	}{
		{"add c", true, func() { s.Add(c); model["c"] = c }},
		{"add a", true, func() { s.Add(a); model["a"] = a }},
		{"add b", true, func() { s.Add(b); model["b"] = b }},
		{"replace a", true, func() { s.Add(a2); model["a"] = a2 }},
		{"remove b", true, func() { s.Remove("b"); delete(model, "b") }},
		{"remove a missing name", false, func() { s.Remove("zz") }},
		{"clone, then grow the clone", false, func() {
			clone = s.Clone()
			clone.Add(d)
			if got, want := clone.All(), []*views.View{a2, c, d}; !slices.Equal(got, want) {
				t.Errorf("clone holds %v, want %v", got, want)
			}
		}},
		{"shrink the clone", false, func() { clone.Remove("c"); clone.Remove("a") }},
		{"remove if nothing matches", false, func() {
			if n := s.RemoveIf(func(v *views.View) bool { return v.Name == "zz" }); n != 0 {
				t.Errorf("RemoveIf deleted %d views, want 0", n)
			}
		}},
		{"touch c", false, func() { touch("c", 5) }},
		{"touch c at the seq it carries", false, func() { touch("c", 5) }},
		{"touch a missing name", false, func() {
			if s.Touch("zz", 5) {
				t.Error("Touch accepted a missing name")
			}
		}},
		{"replace all", true, func() {
			s.ReplaceAll(src)
			model = map[string]*views.View{"b": b, "d": d}
		}},
		{"touch b, which the source shares", false, func() { touch("b", 6) }},
		{"add after replace all", true, func() { s.Add(c); model["c"] = c }},
		{"replace all with itself", false, func() { s.ReplaceAll(s) }},
		{"reset", true, func() { s.Reset(); model = map[string]*views.View{} }},
		{"add after reset", true, func() { s.Add(a); model["a"] = a }},
		{"remove a through RemoveIf", true, func() {
			s.RemoveIf(func(v *views.View) bool { return v.Name == "a" })
			delete(model, "a")
		}},
		{"add a again", true, func() { s.Add(a); model["a"] = a }},
		{"replace all with nil", true, func() { s.ReplaceAll(nil); model = map[string]*views.View{} }},
	}
	for _, st := range steps {
		ver := s.Version()
		st.do()
		if moved := s.Version() != ver; moved != st.moves {
			t.Fatalf("after %s: Version moved = %v, want %v", st.name, moved, st.moves)
		}
		want := make([]*views.View, 0, len(model))
		for _, v := range model {
			want = append(want, v)
		}
		sort.Slice(want, func(i, j int) bool { return want[i].Name < want[j].Name })
		got := s.All()
		if !slices.Equal(got, want) {
			t.Fatalf("after %s: All() = %v, want %v", st.name, got, want)
		}
		slices.Reverse(got)
		if len(got) > 0 {
			got[0] = d
		}
		_ = append(got, d)
		if !slices.Equal(s.All(), want) || s.Len() != len(want) {
			t.Fatalf("after %s: writing into All()'s result changed the set to %v", st.name, s.All())
		}
		for name, v := range model {
			if got, ok := s.Get(name); !ok || got != v {
				t.Fatalf("after %s: Get(%q) = %v, %v", st.name, name, got, ok)
			}
		}
		if got := src.All(); !slices.Equal(got, []*views.View{b, d}) {
			t.Fatalf("after %s: ReplaceAll's source changed to %v", st.name, got)
		}
	}
}

// TestSetWritersBesideBestMatch runs writers, Touch and RemoveIf among them, beside
// BestMatch and All readers; under -race it checks that neither a reader's
// kept slice nor a view in it is ever written, and that two lookups of one
// node with no signature computed write nothing into it.
func TestSetWritersBesideBestMatch(t *testing.T) {
	f := newFixture(t)
	var pool []*views.View
	for _, sql := range []string{
		"SELECT tweet_id FROM tweets WHERE lang = 'en'",
		"SELECT tweet_id FROM tweets WHERE retweets > 100",
		"SELECT tweet_id FROM tweets",
		"SELECT checkin_id FROM checkins WHERE category = 'bar'",
		"SELECT lang, COUNT(*) AS n FROM tweets GROUP BY lang",
	} {
		pool = append(pool, f.makeView(t, sql))
	}
	n := f.corePlan(t, "SELECT tweet_id FROM tweets WHERE lang = 'en' AND retweets > 100")
	s, src := views.NewSet(), views.NewSet()
	src.Add(pool[0])
	src.Add(pool[3])
	inPool := func(v *views.View) bool {
		return slices.ContainsFunc(pool, func(p *views.View) bool { return p.Name == v.Name })
	}
	const iters = 4000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			name := pool[(i/5)%len(pool)].Name
			switch i % 5 {
			case 0:
				s.Add(pool[i%len(pool)])
			case 1:
				s.Remove(name)
			case 2:
				s.Touch(name, i)
			case 3:
				s.RemoveIf(func(v *views.View) bool { return v.Name == name })
			default:
				s.ReplaceAll(src)
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				if m, ok := s.BestMatch(n); ok && !inPool(m.View) {
					t.Errorf("BestMatch returned a view outside the pool: %s", m.View.Name)
					return
				}
				all := s.All()
				if !slices.IsSortedFunc(all, func(a, b *views.View) int { return strings.Compare(a.Name, b.Name) }) {
					t.Errorf("All() out of name order: %v", all)
					return
				}
				for _, v := range all {
					if v.LastUsedSeq >= iters {
						t.Errorf("%s touched at %d, past the writer's last step", v.Name, v.LastUsedSeq)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

func TestBestMatchPrefersExact(t *testing.T) {
	f := newFixture(t)
	broad := f.makeView(t, "SELECT tweet_id FROM tweets")
	exact := f.makeView(t, "SELECT tweet_id FROM tweets WHERE lang = 'en'")
	s := views.NewSet()
	s.Add(broad)
	s.Add(exact)
	n := f.corePlan(t, "SELECT tweet_id FROM tweets WHERE lang = 'en'")
	m, ok := s.BestMatch(n)
	if !ok {
		t.Fatal("no match")
	}
	if !m.Exact || m.View.Name != exact.Name {
		t.Errorf("best match = %s exact=%v, want the exact view", m.View.Name, m.Exact)
	}
}

func TestEvictLRU(t *testing.T) {
	f := newFixture(t)
	old := f.makeView(t, "SELECT tweet_id FROM tweets WHERE lang = 'en'")
	old.LastUsedSeq = 1
	recent := f.makeView(t, "SELECT tweet_id FROM tweets WHERE lang = 'es'")
	recent.LastUsedSeq = 9
	s := views.NewSet()
	s.Add(old)
	s.Add(recent)
	// Budget fits only one.
	evicted := views.EvictLRU(s, recent.SizeBytes()+old.SizeBytes()/2)
	if len(evicted) != 1 || evicted[0].Name != old.Name {
		t.Fatalf("evicted %v, want the older view", evicted)
	}
	if !s.Has(recent.Name) {
		t.Error("recent view evicted")
	}
	// Zero budget clears everything.
	views.EvictLRU(s, 0)
	if s.Len() != 0 {
		t.Error("zero budget left views behind")
	}
}

func TestNameForSigStable(t *testing.T) {
	a := views.NameForSig("some-signature")
	b := views.NameForSig("some-signature")
	c := views.NameForSig("other")
	if a != b || a == c {
		t.Error("NameForSig not a stable function of the signature")
	}
}
