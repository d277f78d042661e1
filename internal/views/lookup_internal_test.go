package views

import (
	"testing"

	"miso/internal/logical"
)

// TestZeroIDNeverMatchesExactly: a node literal that was never built and a
// view assembled without an ID both carry the zero id, which the exact tier
// never takes for equality. The lookup is handed a descriptor, since an
// unbuilt node has no schema to describe.
func TestZeroIDNeverMatchesExactly(t *testing.T) {
	unbuilt := &logical.Node{Kind: logical.KindViewScan, ViewName: "v_anonymous"}
	l := &lookup{node: unbuilt, desc: &logical.Descriptor{}}
	if m, ok := l.match(&View{Name: "v_anonymous", Desc: &logical.Descriptor{}}); ok && m.Exact {
		t.Error("a view without an ID matched an unbuilt node exactly")
	}
}
