package views_test

import (
	"slices"
	"sort"
	"testing"

	"miso/internal/data"
	"miso/internal/logical"
	"miso/internal/multistore"
	"miso/internal/views"
	"miso/internal/workload"
)

// referenceBestMatch is BestMatch as it was before a lookup described its
// node once: a freshly sorted All(), then MatchNode per view, which
// describes the node again for every view. It also reports how many views
// answered the node.
func referenceBestMatch(s *views.Set, n *logical.Node) (best *views.Match, answering int) {
	all := s.All()
	sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
	for _, v := range all {
		m, ok := views.MatchNode(n, v)
		if !ok {
			continue
		}
		answering++
		if best == nil || referenceBetter(m, best) {
			best = m
		}
	}
	return best, answering
}

func referenceBetter(a, b *views.Match) bool {
	if a.Exact != b.Exact {
		return a.Exact
	}
	return a.View.SizeBytes() < b.View.SizeBytes()
}

// diffMatch describes how got differs from want, or returns "" when they
// name the same view with the same exactness, residuals and column order.
func diffMatch(got, want *views.Match) string {
	switch {
	case got == nil && want == nil:
		return ""
	case got == nil || want == nil:
		return "one lookup found a view, the other none"
	case got.View.Name != want.View.Name:
		return "view " + got.View.Name + ", reference " + want.View.Name
	case got.Exact != want.Exact:
		return "exactness differs"
	case !slices.Equal(got.OutCols, want.OutCols):
		return "output columns differ"
	case len(got.Residual) != len(want.Residual):
		return "residual counts differ"
	}
	for i := range got.Residual {
		if got.Residual[i].Canon() != want.Residual[i].Canon() {
			return "residual " + got.Residual[i].Canon() + ", reference " + want.Residual[i].Canon()
		}
	}
	return ""
}

// msmisoSmallDesign runs the MS-MISO small run and returns its live HV and
// DW view sets.
func msmisoSmallDesign(t *testing.T) (hv, dw *views.Set) {
	t.Helper()
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := multistore.DefaultConfig(multistore.VariantMSMiso)
	cfg.SetBudgets(cat, 2.0, 10<<30)
	sys := multistore.New(cfg, cat)
	if err := sys.ProvideFutureWorkload(workload.SQLs()); err != nil {
		t.Fatal(err)
	}
	for _, sql := range workload.SQLs() {
		if _, err := sys.Run(sql); err != nil {
			t.Fatal(err)
		}
	}
	return sys.HV().Views, sys.DW().Views
}

// TestBestMatchMatchesReference holds BestMatch, with and without a match
// memo, to the per-view reference at every node of the 32 paper plans and
// the warm probes, against the warm design and the MS-MISO small run's live
// designs. Only the warm probes have nodes several views answer.
func TestBestMatchMatchesReference(t *testing.T) {
	f := newFixture(t)
	nodes := warmProbes(t, f)
	for _, sql := range workload.SQLs() {
		plan, err := f.b.BuildSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		nodes = append(nodes, plan.Nodes()...)
	}
	hv, dw := msmisoSmallDesign(t)
	designs := map[string]*views.Set{"warm": warmDesign(t, f), "msmiso hv": hv, "msmiso dw": dw}
	contested := 0 // lookups more than one view answers
	for name, design := range designs {
		if design.Len() == 0 {
			t.Fatalf("%s design is empty", name)
		}
		memoized := design.Clone()
		memoized.UseMemo(views.NewMatchMemo())
		// The memoized set is asked twice, so the second pass answers from
		// the memo.
		for pass, set := range []*views.Set{design, memoized, memoized} {
			for i, n := range nodes {
				want, answering := referenceBestMatch(design, n)
				if answering > 1 {
					contested++
				}
				got, ok := set.BestMatch(n)
				if ok != (got != nil) {
					t.Fatalf("%s pass %d node %d: ok=%v with match %v", name, pass, i, ok, got)
				}
				if d := diffMatch(got, want); d != "" {
					t.Errorf("%s pass %d node %d (%s): %s", name, pass, i, n.Kind, d)
				}
			}
		}
	}
	if contested == 0 {
		t.Fatal("no lookup had more than one answering view: a second-best answer would go unnoticed")
	}
}
