package expr_test

import (
	"testing"

	"miso/internal/data"
	"miso/internal/expr"
	"miso/internal/logical"
	"miso/internal/storage"
	"miso/internal/workload"
)

// TestPaperWorkloadCompilesToKernels is the mechanical form of the claim
// CompileBatch's kernel list rests on: every Filter predicate, Project
// expression and Aggregate group key of the paper's 32 queries reaches the
// row evaluator only at a function call. A workload query that brings LIKE,
// arithmetic or any other unaccelerated shape fails here and names it.
func TestPaperWorkloadCompilesToKernels(t *testing.T) {
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	var query string
	compiled := 0
	defer expr.SetFallbackHook(func(e expr.Expr) {
		if _, ok := e.(*expr.Func); !ok {
			t.Errorf("%s: %s falls back to the row evaluator at %T", query, e.Canon(), e)
		}
	})()
	compile := func(e expr.Expr, in *storage.Schema) {
		if _, err := expr.CompileBatch(e, in); err != nil {
			t.Errorf("%s: CompileBatch(%s): %v", query, e.Canon(), err)
		}
		compiled++
	}
	for _, w := range workload.Evolving() {
		query = w.Name
		plan, err := logical.NewBuilder(cat).BuildSQL(w.SQL)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		plan.Walk(func(n *logical.Node) {
			switch n.Kind {
			case logical.KindFilter:
				compile(n.Pred, n.Children[0].Schema())
			case logical.KindProject:
				for _, p := range n.Projs {
					compile(p.Expr, n.Children[0].Schema())
				}
			case logical.KindAggregate:
				for _, g := range n.GroupBy {
					compile(g.Expr, n.Children[0].Schema())
				}
			}
		})
	}
	if compiled == 0 {
		t.Fatal("no expression compiled: the walk found no Filter, Project or Aggregate")
	}
}
