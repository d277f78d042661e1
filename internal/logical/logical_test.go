package logical

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"miso/internal/data"
	"miso/internal/expr"
	"miso/internal/storage"
)

func testCatalog(t *testing.T) *storage.Catalog {
	t.Helper()
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func build(t *testing.T, sql string) *Node {
	t.Helper()
	n, err := NewBuilder(testCatalog(t)).BuildSQL(sql)
	if err != nil {
		t.Fatalf("build %q: %v", sql, err)
	}
	return n
}

func kinds(n *Node) []Kind {
	var out []Kind
	n.Walk(func(m *Node) { out = append(out, m.Kind) })
	return out
}

func hasKind(n *Node, k Kind) bool {
	for _, got := range kinds(n) {
		if got == k {
			return true
		}
	}
	return false
}

func TestBuildShapeSimple(t *testing.T) {
	n := build(t, "SELECT tweet_id FROM tweets WHERE lang = 'en'")
	// Project -> Filter(pushed) -> Extract -> Scan.
	want := []Kind{KindProject, KindFilter, KindExtract, KindScan}
	got := kinds(n)
	if len(got) != len(want) {
		t.Fatalf("kinds = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", got, want)
		}
	}
	if n.Schema().Len() != 1 || n.Schema().Columns[0].Name != "tweet_id" {
		t.Errorf("schema = %s", n.Schema())
	}
}

func TestBuildExtractIsWide(t *testing.T) {
	// The extract always pulls every declared field, regardless of what
	// the query references (schema-on-read parses the whole record).
	n := build(t, "SELECT tweet_id FROM tweets")
	var extract *Node
	n.Walk(func(m *Node) {
		if m.Kind == KindExtract {
			extract = m
		}
	})
	if extract == nil {
		t.Fatal("no extract")
	}
	if len(extract.Fields) != 8 {
		t.Errorf("extract fields = %d, want all 8", len(extract.Fields))
	}
	// Fields are sorted by log field for canonical signatures.
	for i := 1; i < len(extract.Fields); i++ {
		if extract.Fields[i].LogField < extract.Fields[i-1].LogField {
			t.Error("extract fields not sorted")
		}
	}
}

func TestBuildPushdownSingleTablePredicates(t *testing.T) {
	n := build(t, `SELECT c.checkin_id FROM checkins c
		JOIN landmarks l ON c.venue_id = l.venue_id
		WHERE c.category = 'restaurant' AND l.rating >= 3.0`)
	// Each single-table conjunct must sit below the join.
	var join *Node
	n.Walk(func(m *Node) {
		if m.Kind == KindJoin {
			join = m
		}
	})
	if join == nil {
		t.Fatal("no join")
	}
	for i, child := range join.Children {
		if child.Kind != KindFilter {
			t.Errorf("join child %d is %v, want pushed filter", i, child.Kind)
		}
	}
	// Nothing left above the join but the projection.
	if n.Kind != KindProject || n.Children[0].Kind != KindJoin {
		t.Errorf("residual filter above join: %v", kinds(n))
	}
}

func TestBuildJoinKeys(t *testing.T) {
	n := build(t, `SELECT t.tweet_id FROM tweets t JOIN checkins c ON t.user_id = c.user_id`)
	var join *Node
	n.Walk(func(m *Node) {
		if m.Kind == KindJoin {
			join = m
		}
	})
	if join == nil {
		t.Fatal("no join")
	}
	if len(join.LeftKeys) != 1 || join.LeftKeys[0] != "tweets.user_id" ||
		join.RightKeys[0] != "checkins.user_id" {
		t.Errorf("keys = %v / %v", join.LeftKeys, join.RightKeys)
	}
}

func TestBuildQualifiersUseLogNames(t *testing.T) {
	// Views must match across queries regardless of the SQL alias used.
	a := build(t, "SELECT t.tweet_id FROM tweets t WHERE t.lang = 'en'")
	b := build(t, "SELECT tw.tweet_id FROM tweets tw WHERE tw.lang = 'en'")
	if a.Signature() != b.Signature() {
		t.Errorf("alias changed signature:\n%s\nvs\n%s", a.Signature(), b.Signature())
	}
}

func TestBuildAggregateAndHaving(t *testing.T) {
	n := build(t, `SELECT lang, COUNT(*) AS n, AVG(retweets) AS ar FROM tweets
		GROUP BY lang HAVING COUNT(*) > 5`)
	if !hasKind(n, KindAggregate) {
		t.Fatal("no aggregate")
	}
	// HAVING becomes a filter above the aggregate.
	var agg *Node
	n.Walk(func(m *Node) {
		if m.Kind == KindAggregate {
			agg = m
		}
	})
	if len(agg.GroupBy) != 1 || len(agg.Aggs) != 2 {
		t.Errorf("agg: groups=%d aggs=%d", len(agg.GroupBy), len(agg.Aggs))
	}
	foundHaving := false
	n.Walk(func(m *Node) {
		if m.Kind == KindFilter && m.Children[0].Kind == KindAggregate {
			foundHaving = true
		}
	})
	if !foundHaving {
		t.Error("HAVING filter not above aggregate")
	}
	if got := n.Schema().Names(); got[0] != "lang" || got[1] != "n" || got[2] != "ar" {
		t.Errorf("output schema = %v", got)
	}
}

func TestBuildUDFHoisting(t *testing.T) {
	n := build(t, `SELECT tweet_id FROM tweets WHERE SENTIMENT(text) > 0`)
	var extract *Node
	n.Walk(func(m *Node) {
		if m.Kind == KindExtract {
			extract = m
		}
	})
	// The UDF becomes a computed extract field...
	var udfField *ExtractField
	for i := range extract.Fields {
		if extract.Fields[i].UDF != nil {
			udfField = &extract.Fields[i]
		}
	}
	if udfField == nil {
		t.Fatal("UDF not hoisted into extract")
	}
	if !strings.HasPrefix(udfField.OutName, "tweets.__sentiment_") {
		t.Errorf("udf column name = %q", udfField.OutName)
	}
	if !extract.UsesUDFHere() || !extract.UsesUDF() {
		t.Error("extract with UDF field not flagged")
	}
	// ...and every node above the extract is UDF-free.
	n.Walk(func(m *Node) {
		if m.Kind != KindExtract && m.UsesUDFHere() {
			t.Errorf("%v node still uses a UDF", m.Kind)
		}
	})
}

func TestBuildErrors(t *testing.T) {
	cat := testCatalog(t)
	b := NewBuilder(cat)
	bad := map[string]string{
		"unknown table":      "SELECT a FROM nonexistent",
		"unknown column":     "SELECT nope FROM tweets",
		"ambiguous column":   "SELECT user_id FROM tweets t JOIN checkins c ON t.user_id = c.user_id",
		"aggregate in where": "SELECT tweet_id FROM tweets WHERE COUNT(*) > 1",
		"cross join":         "SELECT t.tweet_id FROM tweets t JOIN checkins c ON t.lang = 'en'",
		"ungrouped column":   "SELECT lang, retweets FROM tweets GROUP BY lang",
		"duplicate alias":    "SELECT x.tweet_id FROM tweets x JOIN checkins x ON x.user_id = x.user_id",
	}
	for name, sql := range bad {
		if _, err := b.BuildSQL(sql); err == nil {
			t.Errorf("%s: accepted %q", name, sql)
		}
	}
}

func TestSignatureStability(t *testing.T) {
	// AND order and comparison direction do not change the signature.
	a := build(t, "SELECT tweet_id FROM tweets WHERE lang = 'en' AND retweets > 10")
	b := build(t, "SELECT tweet_id FROM tweets WHERE 10 < retweets AND 'en' = lang")
	if a.Signature() != b.Signature() {
		t.Errorf("signatures differ:\n%s\n%s", a.Signature(), b.Signature())
	}
	// Different constants DO change it.
	c := build(t, "SELECT tweet_id FROM tweets WHERE lang = 'en' AND retweets > 11")
	if a.Signature() == c.Signature() {
		t.Error("different predicate collided")
	}
}

// TestIDFollowsThePayload: the id moves with one conjunct, one join key or
// one limit, and not with the order conjuncts or join keys are written in.
func TestIDFollowsThePayload(t *testing.T) {
	b := NewBuilder(testCatalog(t))
	id := func(sql string) uint64 {
		t.Helper()
		n, err := b.BuildSQL(sql)
		if err != nil {
			t.Fatalf("build %q: %v", sql, err)
		}
		return n.ID()
	}
	const q = `SELECT t.tweet_id FROM tweets t JOIN checkins c ON %s WHERE %s LIMIT %d`
	base := id(fmt.Sprintf(q, "t.user_id = c.user_id AND t.ts = c.ts", "t.lang = 'en' AND t.retweets > 10", 5))
	for what, sql := range map[string]string{
		"conjuncts reordered": fmt.Sprintf(q, "t.user_id = c.user_id AND t.ts = c.ts", "t.retweets > 10 AND t.lang = 'en'", 5),
		"join keys reordered": fmt.Sprintf(q, "t.ts = c.ts AND t.user_id = c.user_id", "t.lang = 'en' AND t.retweets > 10", 5),
	} {
		if id(sql) != base {
			t.Errorf("%s: the id changed", what)
		}
	}
	for what, sql := range map[string]string{
		"one conjunct": fmt.Sprintf(q, "t.user_id = c.user_id AND t.ts = c.ts", "t.lang = 'en' AND t.retweets > 11", 5),
		"one join key": fmt.Sprintf(q, "t.user_id = c.user_id AND t.tweet_id = c.ts", "t.lang = 'en' AND t.retweets > 10", 5),
		"one limit":    fmt.Sprintf(q, "t.user_id = c.user_id AND t.ts = c.ts", "t.lang = 'en' AND t.retweets > 10", 6),
	} {
		if id(sql) == base {
			t.Errorf("%s changed, the id did not", what)
		}
	}
}

func TestWithChildrenIndependence(t *testing.T) {
	n := build(t, "SELECT tweet_id FROM tweets WHERE lang = 'en'")
	want, wantID := n.Signature(), n.ID()
	c1 := n.WithChildren(slices.Clone(n.Children))
	if c1.Signature() != want || c1.ID() != wantID {
		t.Error("copy over the same children differs")
	}
	// A copy over other children, taken after the original's signature is
	// memoized: the change must be reflected in the signature and the id,
	// and the original must be unaffected.
	c2 := n.WithChildren([]*Node{n.Children[0].Children[0]}) // drop the filter
	if c2.Signature() == want || c2.ID() == wantID {
		t.Error("rewritten copy kept the original identity")
	}
	if n.Signature() != want || n.ID() != wantID || n.Children[0].Kind != KindFilter {
		t.Error("original changed")
	}
}

func TestDescribeSimpleChain(t *testing.T) {
	n := build(t, `SELECT c.checkin_id, c.user_id FROM checkins c WHERE c.category = 'bar'`)
	// Descriptor of the filter node (below the projection), as a view's:
	// only a view's descriptor carries the column set.
	d := DescribeView(n.Children[0])
	if !d.Simple {
		t.Fatal("filter chain not Simple")
	}
	if d.SourceSig != "extract(checkins)" {
		t.Errorf("source = %q", d.SourceSig)
	}
	if len(d.Conjuncts) != 1 {
		t.Errorf("conjuncts = %d", len(d.Conjuncts))
	}
	if !d.Columns["checkins.category"] || !d.Columns["checkins.user_id"] {
		t.Errorf("columns missing: %v", d.Columns)
	}
}

func TestDescribeJoinAndSubsumptionHelpers(t *testing.T) {
	n1 := build(t, `SELECT c.checkin_id FROM checkins c
		JOIN landmarks l ON c.venue_id = l.venue_id WHERE c.category = 'bar'`)
	n2 := build(t, `SELECT c.checkin_id FROM checkins c
		JOIN landmarks l ON c.venue_id = l.venue_id
		WHERE c.category = 'bar' AND l.rating >= 4.0`)
	d1 := Describe(findJoinTop(n1))
	d2 := Describe(findJoinTop(n2))
	if !d1.Simple || !d2.Simple {
		t.Fatal("join chains not Simple")
	}
	if d1.SourceSig != d2.SourceSig {
		t.Errorf("source sigs differ:\n%s\n%s", d1.SourceSig, d2.SourceSig)
	}
	if !d1.ConjunctsSubsetOf(d2) {
		t.Error("d1 should subsume into d2")
	}
	if d2.ConjunctsSubsetOf(d1) {
		t.Error("d2 should not be a subset of d1")
	}
	res := d2.ResidualConjuncts(d1)
	if len(res) != 1 || !strings.Contains(res[0].Canon(), "rating") {
		t.Errorf("residual = %v", res)
	}
}

// findJoinTop returns the highest node at or below which the plan is the
// SPJ core (the node right below the final projection).
func findJoinTop(n *Node) *Node {
	for n.Kind == KindProject || n.Kind == KindSort || n.Kind == KindLimit ||
		n.Kind == KindAggregate || n.Kind == KindDistinct {
		n = n.Children[0]
	}
	return n
}

func TestDescribeAggregateNotSimple(t *testing.T) {
	n := build(t, "SELECT lang, COUNT(*) AS n FROM tweets GROUP BY lang")
	var agg *Node
	n.Walk(func(m *Node) {
		if m.Kind == KindAggregate {
			agg = m
		}
	})
	if Describe(agg).Simple {
		t.Error("aggregate marked Simple")
	}
}

func TestNormalizeCollapsesStackedFilters(t *testing.T) {
	// Build Filter(retweets>10, Filter(lang='en', Extract)) manually and
	// check it normalizes to the builder's single-filter shape with the
	// same signature.
	combined := build(t, "SELECT tweet_id FROM tweets WHERE lang = 'en' AND retweets > 10")
	single := build(t, "SELECT tweet_id FROM tweets WHERE lang = 'en'")
	inner := single.Children[0] // Filter(lang='en')
	outer, err := NewFilterNode(inner, &expr.BinOp{
		Op: ">",
		L:  &expr.ColRef{Name: "tweets.retweets"},
		R:  &expr.Const{Val: storage.IntValue(10)},
	})
	if err != nil {
		t.Fatal(err)
	}
	norm := Normalize(outer)
	if norm.Kind != KindFilter || norm.Children[0].Kind != KindExtract {
		t.Fatalf("normalize shape: %v", kinds(norm))
	}
	if norm.Signature() != combined.Children[0].Signature() {
		t.Errorf("normalized signature differs: %s vs %s",
			norm.Signature(), combined.Children[0].Signature())
	}
}

func TestNormalizeDropsIdentityProjection(t *testing.T) {
	n := build(t, "SELECT tweet_id FROM tweets WHERE lang = 'en'")
	child := n.Children[0] // the filter
	projs := make([]Proj, child.Schema().Len())
	for i, c := range child.Schema().Columns {
		projs[i] = Proj{Expr: &expr.ColRef{Name: c.Name}, Name: c.Name}
	}
	ident, err := NewProjectNode(child, projs)
	if err != nil {
		t.Fatal(err)
	}
	norm := Normalize(ident)
	if norm.Kind != KindFilter {
		t.Errorf("identity projection survived: %v", norm.Kind)
	}
	// A reordering projection must NOT be dropped.
	if child.Schema().Len() >= 2 {
		swapped := append([]Proj(nil), projs...)
		swapped[0], swapped[1] = swapped[1], swapped[0]
		reorder, err := NewProjectNode(child, swapped)
		if err != nil {
			t.Fatal(err)
		}
		if Normalize(reorder).Kind != KindProject {
			t.Error("reordering projection dropped")
		}
	}
}

// walkCounter counts how often a node's own expression is inspected for
// UDFs: UsesUDFHere reaches a predicate only through Walk.
type walkCounter struct {
	expr.Expr
	walks *int
}

func (w walkCounter) Walk(fn func(expr.Expr)) {
	*w.walks++
	w.Expr.Walk(fn)
}

// TestDescribeIsLinearInDepth pins the fix for the quadratic descriptor:
// describing a chain of d filters inspects each filter's predicate once,
// where the old HasUDF: n.UsesUDF() re-walked the whole subtree at every
// level of the recursion (d(d+1)/2 inspections).
func TestDescribeIsLinearInDepth(t *testing.T) {
	const depth = 64
	n := build(t, "SELECT tweet_id FROM tweets WHERE lang = 'en'").Children[0].Children[0] // the extract
	walks := 0
	for i := 0; i < depth; i++ {
		n = NewNode(Node{Kind: KindFilter, Children: []*Node{n}, Pred: walkCounter{
			Expr: &expr.BinOp{
				Op: ">",
				L:  &expr.ColRef{Name: "tweets.retweets"},
				R:  &expr.Const{Val: storage.IntValue(int64(i))},
			},
			walks: &walks,
		}}, n.Schema())
	}
	d := Describe(n)
	if !d.Simple || len(d.Conjuncts) != depth || d.HasUDF {
		t.Fatalf("descriptor of the chain: simple=%v conjuncts=%d udf=%v", d.Simple, len(d.Conjuncts), d.HasUDF)
	}
	if walks != depth {
		t.Fatalf("describing %d filters inspected predicates %d times, want %d", depth, walks, depth)
	}
}

func TestDescribeHasUDFComesFromTheSubtree(t *testing.T) {
	n := build(t, "SELECT lang, COUNT(*) AS n FROM tweets WHERE sentiment(text) > 0.5 GROUP BY lang")
	n.Walk(func(m *Node) {
		if got, want := Describe(m).HasUDF, m.UsesUDF(); got != want {
			t.Errorf("%s: HasUDF = %v, UsesUDF = %v", m.Kind, got, want)
		}
	})
	if !Describe(n).HasUDF {
		t.Error("UDF below an aggregate not reported at the root")
	}
}
