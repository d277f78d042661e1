package logical

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"testing"

	"miso/internal/expr"
	"miso/internal/workload"
)

// referenceDescribe is Describe as it was before descriptors carried only
// what matching reads: every level of the recursion builds the column set
// and the column order. TestDescribeMatchesReference holds Describe and
// DescribeView to it.
func referenceDescribe(n *Node) *Descriptor {
	d := &Descriptor{
		Conjuncts: map[string]expr.Expr{},
		Columns:   map[string]bool{},
		HasUDF:    n.UsesUDFHere(),
	}
	for _, c := range n.Schema().Columns {
		d.Columns[c.Name] = true
		d.ColOrder = append(d.ColOrder, c.Name)
	}
	switch n.Kind {
	case KindExtract:
		d.Simple = true
		d.SourceSig = fmt.Sprintf("extract(%s)", n.Children[0].LogName)
	case KindFilter:
		cd := referenceDescribe(n.Children[0])
		d.HasUDF = d.HasUDF || cd.HasUDF
		d.Simple = cd.Simple
		d.SourceSig = cd.SourceSig
		for k, v := range cd.Conjuncts {
			d.Conjuncts[k] = v
		}
		for _, c := range expr.Conjuncts(n.Pred) {
			d.Conjuncts[c.Canon()] = c
		}
	case KindJoin:
		ld := referenceDescribe(n.Children[0])
		rd := referenceDescribe(n.Children[1])
		d.HasUDF = d.HasUDF || ld.HasUDF || rd.HasUDF
		d.Simple = ld.Simple && rd.Simple
		keys := make([]string, len(n.LeftKeys))
		for i := range n.LeftKeys {
			keys[i] = n.LeftKeys[i] + "=" + n.RightKeys[i]
		}
		sort.Strings(keys)
		d.SourceSig = fmt.Sprintf("join(%s,%s,%s,[%s])",
			n.JoinType, ld.SourceSig, rd.SourceSig, strings.Join(keys, ","))
		for k, v := range ld.Conjuncts {
			d.Conjuncts[k] = v
		}
		for k, v := range rd.Conjuncts {
			d.Conjuncts[k] = v
		}
	case KindProject:
		cd := referenceDescribe(n.Children[0])
		d.HasUDF = d.HasUDF || cd.HasUDF
		passThrough := true
		for _, p := range n.Projs {
			c, ok := p.Expr.(*expr.ColRef)
			if !ok || c.Name != p.Name {
				passThrough = false
				break
			}
		}
		if passThrough && cd.Simple {
			d.Simple = true
			d.SourceSig = cd.SourceSig
			for k, v := range cd.Conjuncts {
				d.Conjuncts[k] = v
			}
		} else {
			d.Simple = false
			d.SourceSig = n.Signature()
		}
	case KindViewScan:
		d.Simple = false
		d.SourceSig = n.Signature()
	default:
		d.HasUDF = n.UsesUDF()
		d.Simple = false
		d.SourceSig = n.Signature()
	}
	return d
}

// TestDescribeMatchesReference checks, at every node of the 32 paper
// plans, that a node's descriptor holds what matching reads exactly as the
// reference builds it — its column order equal to the schema's names and
// no column set — and that a view's descriptor adds the reference's column
// set.
func TestDescribeMatchesReference(t *testing.T) {
	b := NewBuilder(testCatalog(t))
	nodes := 0
	for _, sql := range workload.SQLs() {
		plan, err := b.BuildSQL(sql)
		if err != nil {
			t.Fatalf("build %q: %v", sql, err)
		}
		plan.Walk(func(n *Node) {
			nodes++
			got, want := Describe(n), referenceDescribe(n)
			if !want.Simple {
				want.SourceSig = "" // matching reads a skeleton only on Simple descriptors
			}
			if got.Simple != want.Simple || got.SourceSig != want.SourceSig || got.HasUDF != want.HasUDF {
				t.Errorf("%s: simple/source/udf = %v %q %v, reference %v %q %v",
					n.Kind, got.Simple, got.SourceSig, got.HasUDF, want.Simple, want.SourceSig, want.HasUDF)
			}
			if g, w := conjunctKeys(got), conjunctKeys(want); !slices.Equal(g, w) {
				t.Errorf("%s: conjuncts %v, reference %v", n.Kind, g, w)
			}
			if !slices.Equal(got.ColOrder, n.Schema().Names()) || !slices.Equal(got.ColOrder, want.ColOrder) {
				t.Errorf("%s: column order %v, schema %v", n.Kind, got.ColOrder, n.Schema().Names())
			}
			if got.Columns != nil {
				t.Errorf("%s: a node descriptor carries a column set", n.Kind)
			}
			if view := DescribeView(n); !maps.Equal(view.Columns, want.Columns) {
				t.Errorf("%s: view columns %v, reference %v", n.Kind, view.Columns, want.Columns)
			}
		})
	}
	if nodes < 32 {
		t.Fatalf("walked %d nodes", nodes)
	}
}

func conjunctKeys(d *Descriptor) []string {
	keys := make([]string, 0, len(d.Conjuncts))
	for k := range d.Conjuncts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
