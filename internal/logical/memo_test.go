package logical

import (
	"fmt"
	"slices"
	"sync"
	"testing"

	"miso/internal/data"
	"miso/internal/storage"
	"miso/internal/workload"
)

// TestBuildSQLSharesOnePlanPerText: BuildSQL builds a text once and hands
// every later call the same plan. Appends change contents, not schemas, and
// keep the plan; a registered log cannot be replaced, so nothing else can
// change a schema the plan read; a failed build is not remembered; the memo
// stays within its bound.
func TestBuildSQLSharesOnePlanPerText(t *testing.T) {
	cat := testCatalog(t)
	b := NewBuilder(cat)
	const sql = "SELECT lang, COUNT(*) AS n FROM tweets WHERE retweets > 10 GROUP BY lang"
	first, err := b.BuildSQL(sql)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := b.BuildSQL(sql); again != first {
		t.Fatal("a repeated text was built again")
	}

	tweets, err := cat.Log(data.TweetsLog)
	if err != nil {
		t.Fatal(err)
	}
	tweets.AppendLine(`{"tweet_id": 1}`)
	if again, _ := b.BuildSQL(sql); again != first {
		t.Fatal("an append rebuilt the plan")
	}

	// Registering tweets again, with a schema that has no lang field,
	// panics and leaves the remembered plan right.
	var cols []storage.Column
	for _, c := range data.TweetFields().Columns {
		if c.Name != "lang" {
			cols = append(cols, c)
		}
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("a registered log was replaced")
			}
		}()
		cat.AddLog(storage.NewLogFile(data.TweetsLog, storage.MustSchema(cols...)))
	}()
	if again, _ := b.BuildSQL(sql); again != first {
		t.Fatal("a refused re-registration rebuilt the plan")
	}

	const bad = "SELECT FROM WHERE"
	for i := 0; i < 2; i++ {
		if _, err := b.BuildSQL(bad); err == nil {
			t.Fatal("invalid SQL built")
		}
	}
	if _, ok := b.memo[bad]; ok {
		t.Fatal("a failed build was memoized")
	}

	for i := 0; i <= memoCap; i++ {
		if _, err := b.BuildSQL(fmt.Sprintf("SELECT tweet_id FROM tweets LIMIT %d", i+1)); err != nil {
			t.Fatal(err)
		}
		if len(b.memo) > memoCap {
			t.Fatalf("memo holds %d texts, bound %d", len(b.memo), memoCap)
		}
	}
}

// TestBuildSQLConcurrentSharesOnePlan: goroutines building the paper's 32
// texts at once, none built before, end with one plan per text. Meaningful
// under -race.
func TestBuildSQLConcurrentSharesOnePlan(t *testing.T) {
	b := NewBuilder(testCatalog(t))
	sqls := workload.SQLs()
	const workers = 8
	got := make([]map[string]*Node, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			got[w] = map[string]*Node{}
			for i := range sqls {
				// Each worker starts at a different text, so first builds race.
				sql := sqls[(i+w*4)%len(sqls)]
				p, err := b.BuildSQL(sql)
				if err != nil {
					t.Error(err)
					return
				}
				got[w][sql] = p
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for i, sql := range sqls {
		want, err := b.BuildSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		for w := range got {
			if got[w][sql] != want {
				t.Fatalf("worker %d holds a second plan for query %d", w, i+1)
			}
		}
	}
}

// TestNormalizeIsIdempotent: a built plan is already normalized, so the
// reuse plane fingerprints it as it is. Normalizing it again changes
// neither its id nor its signature, over the paper plans and the
// generated SQL.
func TestNormalizeIsIdempotent(t *testing.T) {
	b := NewBuilder(testCatalog(t))
	sqls := append(workload.SQLs(), GeneratedSQL(7, 2000)...)
	checked := 0
	for _, sql := range sqls {
		p, err := b.BuildSQL(sql)
		if err != nil {
			continue // the generator also writes texts the builder rejects
		}
		checked++
		n := Normalize(p)
		if n.ID() != p.ID() || n.Signature() != p.Signature() {
			t.Fatalf("normalizing a built plan moved it:\n%s\n%s", p.Signature(), n.Signature())
		}
	}
	if checked < len(workload.SQLs()) {
		t.Fatalf("only %d texts built", checked)
	}
}

// TestDescribeOnePointerPerNode: a built node describes itself once, so
// every Describe of it returns one pointer, and DescribeView works on a
// copy: the node's descriptor never gains a column set.
func TestDescribeOnePointerPerNode(t *testing.T) {
	b := NewBuilder(testCatalog(t))
	for _, sql := range workload.SQLs() {
		plan, err := b.BuildSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		plan.Walk(func(n *Node) {
			d := Describe(n)
			view := DescribeView(n)
			if again := Describe(n); again != d {
				t.Fatalf("%s: two Describe calls, two descriptors", n.Kind)
			}
			if view == d || d.Columns != nil {
				t.Fatalf("%s: DescribeView wrote into the node's descriptor", n.Kind)
			}
		})
	}
}

// TestUDFFlagsMatchTheWalk: the UDF flags a node gets at build equal a walk
// of its expressions and subtree, on the 32 paper plans, on WithChildren
// copies over the same and over UDF-free children, and on node literals
// (which walk) and their copies.
func TestUDFFlagsMatchTheWalk(t *testing.T) {
	walkUDF := func(n *Node) bool {
		found := false
		n.Walk(func(m *Node) { found = found || m.walkUDFHere() })
		return found
	}
	check := func(what string, n *Node) {
		t.Helper()
		if here, all := n.UsesUDFHere(), n.UsesUDF(); here != n.walkUDFHere() || all != walkUDF(n) {
			t.Fatalf("%s %s: flags here=%v subtree=%v, walk %v %v", what, n.Kind, here, all, n.walkUDFHere(), walkUDF(n))
		}
	}
	b := NewBuilder(testCatalog(t))
	udf := 0
	for _, sql := range workload.SQLs() {
		plan, err := b.BuildSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		if plan.UsesUDF() {
			udf++
		}
		plan.Walk(func(n *Node) {
			check("built", n)
			if len(n.Children) == 0 {
				return
			}
			check("copy", n.WithChildren(slices.Clone(n.Children)))
			leaves := make([]*Node, len(n.Children))
			for i, c := range n.Children {
				leaves[i] = NewViewScan(fmt.Sprintf("v%d", i), c.Schema())
			}
			check("copy over view scans", n.WithChildren(leaves))
			lit := Node{Kind: n.Kind, Children: n.Children, LogName: n.LogName, Fields: n.Fields,
				Pred: n.Pred, Projs: n.Projs, JoinType: n.JoinType, LeftKeys: n.LeftKeys, RightKeys: n.RightKeys,
				GroupBy: n.GroupBy, Aggs: n.Aggs, SortKeys: n.SortKeys, LimitN: n.LimitN}
			check("literal", &lit)
			check("literal's copy", lit.WithChildren(n.Children))
			check("literal built", NewNode(lit, n.Schema()))
		})
	}
	if udf == 0 {
		t.Fatal("no paper plan calls a UDF: the checks are vacuous")
	}
}
