package logical_test

import (
	"slices"
	"sync"
	"testing"

	"miso/internal/data"
	"miso/internal/logical"
	"miso/internal/multistore"
	"miso/internal/optimizer"
	"miso/internal/workload"
)

// TestIDsAgreeWithSignatures holds every node's structural id to the
// signature it stands for, over the nodes the system meets: the 32 paper
// plans, their rewrites against the warm MS-MISO design, every plan part
// EnumeratePlans builds for them under it (HV plans, cuts, DW parts), and the
// plans of the generated SQL. Two nodes have equal ids exactly when they
// have equal signatures, and no id is zero.
func TestIDsAgreeWithSignatures(t *testing.T) {
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := multistore.DefaultConfig(multistore.VariantMSMiso)
	cfg.SetBudgets(cat, 2.0, 10<<30)
	sys := multistore.New(cfg, cat)
	b := logical.NewBuilder(cat)
	var nodes []*logical.Node
	add := func(n *logical.Node) {
		if n != nil {
			nodes = append(nodes, n.Nodes()...)
		}
	}
	var plans []*logical.Node
	for _, sql := range workload.SQLs() {
		if _, err := sys.Run(sql); err != nil {
			t.Fatal(err)
		}
		plan, err := b.BuildSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		plans = append(plans, plan)
	}
	o, d := sys.Optimizer(), sys.Design()
	if d.HV.Len() == 0 || d.DW.Len() == 0 {
		t.Fatalf("design not warm: %d HV views, %d DW views", d.HV.Len(), d.DW.Len())
	}
	for _, raw := range plans {
		add(raw)
		add(optimizer.RewriteWithViews(raw, d.HV))
		for _, p := range o.EnumeratePlans(raw, d) {
			add(p.HVPlan)
			add(p.DWPart)
			for _, c := range p.Cuts {
				add(c.HVPlan)
				add(c.DWView)
			}
		}
	}
	for _, sql := range logical.GeneratedSQL(5, 3000) {
		if plan, err := b.BuildSQL(sql); err == nil {
			add(plan)
		}
	}

	bySig, byID := map[string]uint64{}, map[uint64]string{}
	for _, n := range nodes {
		id, sig := n.ID(), n.Signature()
		if id == 0 {
			t.Fatalf("zero id: %s", sig)
		}
		if other, ok := bySig[sig]; ok && other != id {
			t.Fatalf("one signature, ids %x and %x: %s", other, id, sig)
		}
		if other, ok := byID[id]; ok && other != sig {
			t.Fatalf("id %x for two signatures:\n%s\n%s", id, other, sig)
		}
		bySig[sig], byID[id] = id, sig
	}
	t.Logf("%d nodes, %d distinct signatures", len(nodes), len(bySig))
}

// TestSignatureConcurrentFirstUse: goroutines take the first signatures of
// freshly built paper plans and of copies over the same children at once,
// as the tuner's what-if workers and concurrent served sessions do with
// shared plans. No prewarm precedes them; under -race this is the memo's
// regression, and every caller must see the text a serial walk prints. The
// workers describe every node too: the descriptor memo must hand all of
// them one pointer per node, describing what a serial build's node does.
func TestSignatureConcurrentFirstUse(t *testing.T) {
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := logical.NewBuilder(cat)
	var fresh, copies []*logical.Node
	for _, sql := range workload.SQLs() {
		plan, err := b.BuildSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		fresh = append(fresh, plan)
		copies = append(copies, plan.WithChildren(slices.Clone(plan.Children)))
	}
	const workers = 8
	got := make([][]string, workers)
	descs := make([][]*logical.Descriptor, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			plans := fresh
			if w%2 == 1 {
				plans = copies
			}
			for _, p := range plans {
				got[w] = append(got[w], p.Signature())
				p.Walk(func(n *logical.Node) { descs[w] = append(descs[w], logical.Describe(n)) })
			}
		}(w)
	}
	wg.Wait()
	for w := 2; w < workers; w++ {
		if !slices.Equal(descs[w], descs[w%2]) {
			t.Fatalf("workers %d and %d describe one node with two descriptors", w%2, w)
		}
	}
	ref := logical.NewBuilder(cat) // b would hand back the plans the workers shared
	for i, sql := range workload.SQLs() {
		plan, err := ref.BuildSQL(sql)
		if err != nil {
			t.Fatal(err)
		}
		want := plan.Signature()
		for w := range got {
			if got[w][i] != want {
				t.Fatalf("worker %d, query %d: signature %q, a serial build prints %q", w, i+1, got[w][i], want)
			}
		}
		plan.Walk(func(n *logical.Node) {
			d, want := descs[0][0], logical.Describe(n)
			descs[0] = descs[0][1:]
			if d.Simple != want.Simple || d.SourceSig != want.SourceSig || !slices.Equal(d.ColOrder, want.ColOrder) {
				t.Fatalf("query %d, %s: a worker's descriptor differs from a serial build's", i+1, n.Kind)
			}
		})
	}
}

// TestIDOverMatchesWithChildren holds IDOver to the id WithChildren builds,
// over every node with children of the paper plans and the generated SQL:
// over its own children, and over a working-set scan in place of each
// child, as a DW remainder is costed without being built.
func TestIDOverMatchesWithChildren(t *testing.T) {
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b := logical.NewBuilder(cat)
	sqls := slices.Concat(workload.SQLs(), logical.GeneratedSQL(5, 500))
	checked := 0
	for _, sql := range sqls {
		plan, err := b.BuildSQL(sql)
		if err != nil {
			continue
		}
		plan.Walk(func(n *logical.Node) {
			if len(n.Children) == 0 {
				return
			}
			ids := make([]uint64, len(n.Children))
			for i, c := range n.Children {
				ids[i] = c.ID()
			}
			if got, want := n.IDOver(ids), n.WithChildren(slices.Clone(n.Children)).ID(); got != want || got != n.ID() {
				t.Fatalf("over its own children IDOver gives %x, WithChildren %x, the node %x: %s", got, want, n.ID(), n.Signature())
			}
			for i, c := range n.Children {
				ws := logical.NewViewScan("ws_0", c.Schema())
				kids := slices.Clone(n.Children)
				kids[i] = ws
				over := slices.Clone(ids)
				over[i] = logical.NewViewScan("ws_0", nil).ID()
				if got, want := n.IDOver(over), n.WithChildren(kids).ID(); got != want {
					t.Fatalf("with child %d a working set, IDOver gives %x, WithChildren %x: %s", i, got, want, n.Signature())
				}
			}
			checked++
		})
	}
	if checked == 0 {
		t.Fatal("no node with children checked")
	}
	t.Logf("%d nodes checked", checked)
}
