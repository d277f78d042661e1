// Package core implements the MISO tuner (Algorithm 1 of the paper): at
// each reorganization phase it analyzes the recent query window, computes
// epoch-decayed predicted benefits for every opportunistic view, groups
// views into interacting sets via the signed degree of interaction (doi),
// sparsifies each set (merging strongly positive interactions into single
// knapsack items and keeping one representative among strongly negative
// ones), and then packs two multidimensional 0-1 knapsacks in sequence —
// DW first with dimensions (Bd, Bt), then HV with (Bh, remaining Bt) — to
// produce the new multistore design with Vh ∩ Vd = ∅.
package core

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"miso/internal/govern"
	"miso/internal/history"
	"miso/internal/logical"
	"miso/internal/optimizer"
	"miso/internal/transfer"
	"miso/internal/views"
)

// Config holds the tuner's constraints and knobs. The zero value is the
// paper's tuner with no budgets (the caller sets them).
type Config struct {
	// Bh, Bd are the view storage budgets in (logical) bytes.
	Bh, Bd int64
	// Bt is the per-reorganization view transfer budget in bytes.
	Bt int64

	// Ablation knobs (all default off = the paper's design).

	// HVFirst reverses the knapsack order: pack HV before DW. The paper
	// packs DW first because it is the store whose design matters most.
	HVFirst bool
	// SkipSparsify disables interaction analysis: every view is an
	// independent knapsack item.
	SkipSparsify bool
	// AllowReplication relaxes Vh ∩ Vd = ∅: views placed in DW remain
	// candidates for HV.
	AllowReplication bool
}

// The move penalties charge each candidate the time its placement would
// spend moving data, in seconds per byte: three times what the transfer
// pipeline takes (to DW, or back to HV). The factor is hysteresis:
// predicted benefits come from the recent window, which overstates
// recurrence for ad-hoc queries, so a move must clearly pay for itself
// before the tuner performs it.
var (
	movePenaltyDW = 3 * transfer.Cost(1<<30).Total() / float64(1<<30)
	movePenaltyHV = 3 * transfer.CostToHV(1<<30).Total() / float64(1<<30)
)

const (
	// doiThresholdFrac scales the interaction threshold: a pair of views
	// interacts only when |doi| is at least this fraction of the weaker
	// view's own predicted benefit.
	doiThresholdFrac = 0.5
	// maxPartSize bounds interacting-set size (the paper keeps parts
	// small, around 4).
	maxPartSize = 4
)

// Tuner computes new multistore designs.
type Tuner struct {
	cfg Config
	opt *optimizer.Optimizer

	memo *views.MatchMemo
	// workers bounds the what-if pool: GOMAXPROCS, as exec.Env.Workers == 0
	// means. The design is the same at any count (see probeTable).
	workers int

	// Debug, when set, receives the knapsack candidates and the chosen
	// DW/HV items after each Tune call (used by tests and diagnostics).
	Debug func(items, dwChosen, hvChosen []*Item)
}

// NewTuner creates a tuner using the optimizer's what-if interface.
func NewTuner(cfg Config, opt *optimizer.Optimizer) *Tuner {
	return &Tuner{cfg: cfg, opt: opt, memo: views.NewMatchMemo(), workers: runtime.GOMAXPROCS(0)}
}

// Item is one knapsack candidate: a single view or a merged group of
// positively interacting views.
type Item struct {
	Views []*views.View
	// Size is the total logical bytes of the item.
	Size int64
	// MoveToDW / MoveToHV are the bytes that would consume transfer
	// budget if the item is placed in DW / HV respectively (views already
	// resident in the target store move for free).
	MoveToDW, MoveToHV int64
	// BnDW, BnHV are the predicted future benefits of placing the item
	// in each store.
	BnDW, BnHV float64
}

func (it *Item) names() []string {
	out := make([]string, len(it.Views))
	for i, v := range it.Views {
		out[i] = v.Name
	}
	sort.Strings(out)
	return out
}

// Reorg is the tuner's output: the new design plus the movements needed to
// realize it from the current design.
type Reorg struct {
	NewHV, NewDW *views.Set
	// MoveToDW are views transferring HV -> DW (loaded into permanent
	// space, indexed).
	MoveToDW []*views.View
	// MoveToHV are views evicted from DW transferring back to HV.
	MoveToHV []*views.View
	// DropHV are views discarded from HV (outside the new design).
	DropHV []*views.View
	// TransferBytes is the total bytes moved (consumes Bt).
	TransferBytes int64
}

// Tune computes the new multistore design for the recent window.
func (t *Tuner) Tune(current optimizer.Design, w *history.Window) (*Reorg, error) {
	universe, inDW := candidates(current)
	if len(universe) == 0 {
		return &Reorg{NewHV: views.NewSet(), NewDW: views.NewSet()}, nil
	}

	relevant, first, costs, err := t.probeTable(w.Entries(), universe)
	if err != nil {
		return nil, err
	}
	bnDW, bnHV, doi := readTable(relevant, first, w.Weights(), costs)

	var items []*Item
	if t.cfg.SkipSparsify {
		for _, v := range universe {
			items = append(items, t.singleton(v, bnDW, bnHV, inDW))
		}
	} else {
		parts := t.computeInteractingSets(universe, doi, bnDW)
		items = t.sparsifySets(parts, doi, bnDW, bnHV, inDW)
	}

	// Two knapsacks in sequence. The paper packs DW first with dimensions
	// (Bd, Bt), since DW offers the superior execution performance, then HV
	// with (Bh, remaining Bt); the HVFirst ablation swaps the order.
	dw := packPhase{t.cfg.Bd, func(it *Item) (int64, float64) { return it.MoveToDW, it.BnDW }}
	hv := packPhase{t.cfg.Bh, func(it *Item) (int64, float64) { return it.MoveToHV, it.BnHV }}
	var dwChosen, hvChosen []*Item
	if t.cfg.HVFirst {
		hvChosen, dwChosen = t.packTwoPhase(items, hv, dw)
	} else {
		dwChosen, hvChosen = t.packTwoPhase(items, dw, hv)
	}
	if t.Debug != nil {
		t.Debug(items, dwChosen, hvChosen)
	}
	newDW := views.NewSet()
	for _, it := range dwChosen {
		for _, v := range it.Views {
			newDW.Add(v)
		}
	}
	newHV := views.NewSet()
	for _, it := range hvChosen {
		for _, v := range it.Views {
			newHV.Add(v)
		}
	}
	if !t.cfg.AllowReplication {
		// Vh and Vd stay disjoint (a DW placement wins ties).
		for _, v := range newDW.All() {
			newHV.Remove(v.Name)
		}
	}

	reorg := &Reorg{NewHV: newHV, NewDW: newDW}
	for _, v := range newDW.All() {
		if !inDW[v.Name] {
			reorg.MoveToDW = append(reorg.MoveToDW, v)
			reorg.TransferBytes += v.SizeBytes()
		}
	}
	for _, v := range newHV.All() {
		if inDW[v.Name] {
			reorg.MoveToHV = append(reorg.MoveToHV, v)
			reorg.TransferBytes += v.SizeBytes()
		}
	}
	for _, v := range current.HV.All() {
		if !newHV.Has(v.Name) && !newDW.Has(v.Name) {
			reorg.DropHV = append(reorg.DropHV, v)
		}
	}
	return reorg, nil
}

// candidates lists the views of both stores in name order, and which of
// them DW holds.
func candidates(current optimizer.Design) ([]*views.View, map[string]bool) {
	all := map[string]*views.View{}
	inDW := map[string]bool{}
	for _, v := range current.HV.All() {
		all[v.Name] = v
	}
	for _, v := range current.DW.All() {
		all[v.Name] = v
		inDW[v.Name] = true
	}
	universe := make([]*views.View, 0, len(all))
	for _, v := range all {
		universe = append(universe, v)
	}
	sort.Slice(universe, func(i, j int) bool { return universe[i].Name < universe[j].Name })
	return universe, inDW
}

// packPhase is one store's side of the two-phase pack: its storage budget
// and an item's knapsack dimensions (bytes moved, benefit) there.
type packPhase struct {
	capacity int64
	dims     func(*Item) (int64, float64)
}

// packTwoPhase packs the first store from all the items and the whole
// transfer budget, then the second from what the first left of both (of
// the budget only, under AllowReplication).
func (t *Tuner) packTwoPhase(items []*Item, first, second packPhase) (firstChosen, secondChosen []*Item) {
	firstChosen = packKnapsack(items, first.capacity, t.cfg.Bt, first.dims)
	var used int64
	taken := map[*Item]bool{}
	for _, it := range firstChosen {
		taken[it] = true
		moved, _ := first.dims(it)
		used += moved
	}
	rest := items
	if !t.cfg.AllowReplication {
		rest = slices.DeleteFunc(slices.Clone(items), func(it *Item) bool { return taken[it] })
	}
	return firstChosen, packKnapsack(rest, second.capacity, max(t.cfg.Bt-used, 0), second.dims)
}

// probe is one what-if question: what the query behind space costs under a
// hypothetical design holding just the given HV and DW views.
type probe struct {
	space  *optimizer.PlanSpace
	hv, dw []*views.View
}

// cost answers a probe. It only reads the plan space and the shared match
// memo, so probes of one phase may be answered concurrently.
func (t *Tuner) cost(p probe) float64 {
	d := optimizer.EmptyDesign()
	// Every hypothetical design of this tuning phase shares one match
	// memo, so a (subtree, view) pair is described and checked once
	// across all probes instead of once per probe.
	d.HV.UseMemo(t.memo)
	d.DW.UseMemo(t.memo)
	for _, v := range p.hv {
		d.HV.Add(v)
	}
	for _, v := range p.dw {
		d.DW.Add(v)
	}
	return p.space.Cost(d)
}

// probeTable asks every what-if question of one tuning phase once and
// returns the answers by position, beside each entry's relevant views and
// the first slot of its run. A plan with relevant views v0..vn-1 owns
// consecutive slots — its base cost; the cost with {vk} in DW, then with
// {vk} in HV, for each k; the cost with {va, vb} in DW for each a < b —
// and plans follow one another in the window order of their first entry
// (one with no relevant view owns none). Entries that hold one plan — the
// builder hands every repeat of a statement the plan it built first —
// share its relevant views and its run. readTable walks the same order.
//
// Costing is a pure read (see optimizer.EnumeratePlans) and each task
// writes only its own slot, so the table, and every design derived from
// it, is identical at any worker count.
func (t *Tuner) probeTable(entries []history.Entry, universe []*views.View) (relevant [][]*views.View, first []int, costs []float64, err error) {
	// plans lists each plan of the window once, in the order of its first
	// entry.
	var plans []*logical.Node
	index := map[*logical.Node]int{}
	for _, e := range entries {
		if _, ok := index[e.Plan]; !ok {
			index[e.Plan] = len(plans)
			plans = append(plans, e.Plan)
		}
	}

	// Only the views matching some plan node can have benefit or
	// interactions for that query. Plans are independent, so the matching
	// fans out too, one slot per task.
	planRel := make([][]*views.View, len(plans))
	if err := runParallel(t.workers, "tuner relevant-views", len(plans), func(k int) {
		planRel[k] = relevantViews(plans[k], universe)
	}); err != nil {
		return nil, nil, nil, err
	}

	// Every probe of a plan shares the design-independent half of its
	// costing. The spaces are built here, serially, before the probes fan
	// out, and afresh on every call: each query execution since the last
	// one rewrote the estimator they read.
	var probes []probe
	start := make([]int, len(plans))
	for k, plan := range plans {
		rel := planRel[k]
		start[k] = len(probes)
		if len(rel) == 0 {
			continue
		}
		sp := t.opt.PlanSpace(plan)
		probes = append(probes, probe{space: sp})
		for j := range rel {
			probes = append(probes, probe{space: sp, dw: rel[j : j+1]}, probe{space: sp, hv: rel[j : j+1]})
		}
		for a := 0; a < len(rel); a++ {
			for b := a + 1; b < len(rel); b++ {
				probes = append(probes, probe{space: sp, dw: []*views.View{rel[a], rel[b]}})
			}
		}
	}
	costs = make([]float64, len(probes))
	err = runParallel(t.workers, "tuner what-if", len(probes), func(i int) {
		costs[i] = t.cost(probes[i])
	})
	relevant = make([][]*views.View, len(entries))
	first = make([]int, len(entries))
	for i, e := range entries {
		k := index[e.Plan]
		relevant[i], first[i] = planRel[k], start[k]
	}
	return relevant, first, costs, err
}

// readTable folds a probe table into each view's predicted benefit per
// store and each co-relevant pair's signed degree of interaction, measured
// in DW placement (where the benefit differences are largest). It walks
// every entry in window order, each with its own weight, reads the entry's
// run from its first slot in probeTable's order and sums serially in
// (entry, view, pair) order, so float64 rounding never depends on how the
// table was filled or which entries shared a run.
func readTable(relevant [][]*views.View, first []int, weights, costs []float64) (bnDW, bnHV map[string]float64, doi map[[2]string]float64) {
	bnDW = map[string]float64{}
	bnHV = map[string]float64{}
	doi = map[[2]string]float64{}
	var run []float64
	next := func() float64 {
		c := run[0]
		run = run[1:]
		return c
	}
	for i, rel := range relevant {
		if len(rel) == 0 {
			continue
		}
		run = costs[first[i]:]
		base := next()
		alone := make([]float64, len(rel)) // each view's benefit alone in DW
		for k, v := range rel {
			alone[k] = max0(base - next())
			bnDW[v.Name] += weights[i] * alone[k]
			bnHV[v.Name] += weights[i] * max0(base-next())
		}
		for a := 0; a < len(rel); a++ {
			for b := a + 1; b < len(rel); b++ {
				together := max0(base - next())
				doi[pairKey(rel[a].Name, rel[b].Name)] += weights[i] * (together - alone[a] - alone[b])
			}
		}
	}
	return bnDW, bnHV, doi
}

// runParallel runs fn(0..n-1) on the calling goroutine and up to workers-1
// more, each pulling the next index from an atomic counter so uneven task
// costs balance themselves; at one worker (or one task) that is a plain
// serial loop. A panicking task is contained by govern.Capture and
// returned as a typed govern.ErrInternal carrying op, so a bad what-if
// probe fails one Tune call, not the process; the workers stop claiming
// tasks once any task fails.
func runParallel(workers int, op string, n int, fn func(int)) error {
	var next atomic.Int64
	var failed atomic.Bool
	var firstErr error // written by the one task that flips failed
	work := func() {
		for !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			if err := govern.Capture(op, func() error { fn(i); return nil }); err != nil {
				if failed.CompareAndSwap(false, true) {
					firstErr = err
				}
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return firstErr
}

// relevantViews returns the subset of the (name-sorted) universe matching
// some node of the plan, in universe order.
func relevantViews(plan *logical.Node, universe []*views.View) []*views.View {
	var rel []*views.View
	for _, v := range universe {
		if views.MatchesSome(plan, v) {
			rel = append(rel, v)
		}
	}
	return rel
}

func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

func max0(f float64) float64 {
	if f < 0 {
		return 0
	}
	return f
}
