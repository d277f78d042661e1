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
	"sort"
	"sync"
	"sync/atomic"

	"miso/internal/govern"
	"miso/internal/history"
	"miso/internal/logical"
	"miso/internal/optimizer"
	"miso/internal/views"
)

// Config holds the tuner's constraints and knobs.
type Config struct {
	// Bh, Bd are the view storage budgets in (logical) bytes.
	Bh, Bd int64
	// Bt is the per-reorganization view transfer budget in bytes.
	Bt int64
	// MovePenaltyPerByteDW / MovePenaltyPerByteHV charge each candidate
	// the time its placement would spend moving data (seconds per byte),
	// so a view is only placed when its predicted benefit exceeds the
	// cost of moving it. Zero disables netting.
	MovePenaltyPerByteDW float64
	MovePenaltyPerByteHV float64

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

	// TuneWorkers bounds the worker pool evaluating what-if cost probes
	// during Tune. Values <= 1 keep costing fully serial (the default).
	// Any worker count produces byte-identical designs: parallel probes
	// only warm the cost cache, and accumulation always runs serially in
	// a fixed (entry, pair) order, so float64 rounding never depends on
	// scheduling.
	TuneWorkers int
}

// DefaultConfig returns the paper's tuner: no ablation, serial costing
// (budgets must still be set by the caller).
func DefaultConfig() Config { return Config{} }

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

	cache *costCache
	memo  *views.MatchMemo
	// spaces holds, by window sequence number, the design-independent half
	// of costing each window query for the Tune call in progress.
	spaces map[int]*optimizer.PlanSpace

	// Debug, when set, receives the knapsack candidates and the chosen
	// DW/HV items after each Tune call (used by tests and diagnostics).
	Debug func(items, dwChosen, hvChosen []*Item)
}

// NewTuner creates a tuner using the optimizer's what-if interface.
func NewTuner(cfg Config, opt *optimizer.Optimizer) *Tuner {
	return &Tuner{cfg: cfg, opt: opt, cache: newCostCache(), memo: views.NewMatchMemo()}
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
	all := map[string]*views.View{}
	inDW := map[string]bool{}
	for _, v := range current.HV.All() {
		all[v.Name] = v
	}
	for _, v := range current.DW.All() {
		all[v.Name] = v
		inDW[v.Name] = true
	}
	if len(all) == 0 {
		return &Reorg{NewHV: views.NewSet(), NewDW: views.NewSet()}, nil
	}
	universe := make([]*views.View, 0, len(all))
	for _, v := range all {
		universe = append(universe, v)
	}
	sort.Slice(universe, func(i, j int) bool { return universe[i].Name < universe[j].Name })

	entries := w.Entries()
	weights := w.Weights()
	workers := t.cfg.TuneWorkers

	// Serially prewarm every window plan's node signatures: Signature
	// memoizes lazily into the node, a write that must not first happen
	// on two what-if workers at once.
	for _, e := range entries {
		e.Plan.PrewarmSignatures()
	}

	// Per-query relevant views: only those matching some plan node can
	// have benefit or interactions for that query. Each plan's node
	// signatures and subsumption descriptors are computed once here and
	// matched against every view, instead of re-walking (and
	// re-describing) the plan per view. Entries are independent, so the
	// matching fans out across the worker pool; each slot is written by
	// exactly one task and the per-entry view order follows the sorted
	// universe, keeping the result identical at any worker count.
	relevant := make([][]*views.View, len(entries))
	if err := runParallel(workers, "tuner relevant-views", len(entries), func(i int) {
		relevant[i] = relevantViews(entries[i].Plan, universe)
	}); err != nil {
		return nil, err
	}

	// Every probe of an entry shares the design-independent half of its
	// costing. The spaces are built here, serially, so they are immutable
	// before the probes fan out, and afresh on every call: each query
	// execution since the last one rewrote the estimator they read.
	t.spaces = make(map[int]*optimizer.PlanSpace, len(entries))
	for i, e := range entries {
		if len(relevant[i]) > 0 {
			t.spaces[e.Seq] = t.opt.PlanSpace(e.Plan)
		}
	}

	// Warm the cost cache by fanning every what-if probe — per-entry
	// base and benefit probes, per-pair doi probes — out across the
	// worker pool. The optimizer's cost path is a pure read (see
	// optimizer.EnumeratePlans), so every probe computes the same value
	// regardless of which worker runs it; the serial accumulation below
	// then reads each probe back as a cache hit in the original fixed
	// (entry, pair) order, making the float64 sums — and every design
	// decision downstream — byte-identical to the serial tuner.
	if workers > 1 {
		if err := t.warmProbes(entries, relevant, workers); err != nil {
			return nil, err
		}
	}

	// Predicted per-store benefits for each view.
	bnDW := map[string]float64{}
	bnHV := map[string]float64{}
	for i, e := range entries {
		if len(relevant[i]) == 0 {
			continue
		}
		base := t.cost(e, nil, nil)
		for _, v := range relevant[i] {
			bnDW[v.Name] += weights[i] * max0(base-t.cost(e, nil, []*views.View{v}))
			bnHV[v.Name] += weights[i] * max0(base-t.cost(e, []*views.View{v}, nil))
		}
	}

	// Signed degrees of interaction between co-relevant pairs, measured
	// in DW placement (where the benefit differences are largest).
	doi := map[[2]string]float64{}
	for i, e := range entries {
		rel := relevant[i]
		if len(rel) < 2 {
			continue
		}
		base := t.cost(e, nil, nil)
		for a := 0; a < len(rel); a++ {
			for b := a + 1; b < len(rel); b++ {
				va, vb := rel[a], rel[b]
				bA := max0(base - t.cost(e, nil, []*views.View{va}))
				bB := max0(base - t.cost(e, nil, []*views.View{vb}))
				bAB := max0(base - t.cost(e, nil, []*views.View{va, vb}))
				key := pairKey(va.Name, vb.Name)
				doi[key] += weights[i] * (bAB - bA - bB)
			}
		}
	}

	var items []*Item
	if t.cfg.SkipSparsify {
		for _, v := range universe {
			items = append(items, t.singleton(v, bnDW, bnHV, inDW))
		}
	} else {
		parts := t.computeInteractingSets(universe, doi, bnDW)
		items = t.sparsifySets(parts, doi, bnDW, bnHV, inDW)
	}

	dwDims := func(it *Item) (int64, float64) { return it.MoveToDW, it.BnDW }
	hvDims := func(it *Item) (int64, float64) { return it.MoveToHV, it.BnHV }

	var dwChosen, hvChosen []*Item
	if t.cfg.HVFirst {
		// Ablation: pack HV first, DW from the remainder.
		hvChosen = packKnapsack(items, t.cfg.Bh, t.cfg.Bt, hvDims)
		var used int64
		taken := map[*Item]bool{}
		for _, it := range hvChosen {
			taken[it] = true
			used += it.MoveToHV
		}
		rest := items
		if !t.cfg.AllowReplication {
			rest = nil
			for _, it := range items {
				if !taken[it] {
					rest = append(rest, it)
				}
			}
		}
		dwChosen = packKnapsack(rest, t.cfg.Bd, remainingBudget(t.cfg.Bt, used), dwDims)
	} else {
		// Phase 1: pack DW with dimensions (Bd, Bt) — the paper's order,
		// since DW offers the superior execution performance.
		dwChosen = packKnapsack(items, t.cfg.Bd, t.cfg.Bt, dwDims)
		var used int64
		taken := map[*Item]bool{}
		for _, it := range dwChosen {
			taken[it] = true
			used += it.MoveToDW
		}
		// Phase 2: pack HV with dimensions (Bh, remaining Bt).
		rest := items
		if !t.cfg.AllowReplication {
			rest = nil
			for _, it := range items {
				if !taken[it] {
					rest = append(rest, it)
				}
			}
		}
		hvChosen = packKnapsack(rest, t.cfg.Bh, remainingBudget(t.cfg.Bt, used), hvDims)
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

// cost evaluates (with caching) the what-if cost of the entry's query under
// a hypothetical design of the given HV and DW views. Hits allocate
// nothing: the cache key is a fixed-size struct built from inline hashes,
// and the hypothetical Design is only assembled on a miss, which costs it
// against the entry's plan space (a call outside Tune builds a throwaway
// one), so a probe re-costs only what its views touch. Safe for concurrent
// use once the entry plans' signatures are prewarmed.
func (t *Tuner) cost(e history.Entry, hvViews, dwViews []*views.View) float64 {
	key := costKey{seq: e.Seq, hv: viewSetHash(hvViews), dw: viewSetHash(dwViews)}
	if c, ok := t.cache.get(key); ok {
		return c
	}
	d := optimizer.EmptyDesign()
	// Every hypothetical design of this tuning phase shares one match
	// memo, so a (subtree, view) pair is described and checked once
	// across all probes instead of once per probe.
	d.HV.UseMemo(t.memo)
	d.DW.UseMemo(t.memo)
	for _, v := range hvViews {
		d.HV.Add(v)
	}
	for _, v := range dwViews {
		d.DW.Add(v)
	}
	sp := t.spaces[e.Seq]
	if sp == nil {
		sp = t.opt.PlanSpace(e.Plan)
	}
	c := sp.Cost(d)
	t.cache.put(key, c)
	return c
}

// probe is one independent what-if cost task.
type probe struct {
	e      history.Entry
	hv, dw []*views.View
}

// warmProbes lists every what-if probe Tune's accumulation loops will
// read — in their own right independent, pure cost tasks — and evaluates
// them across the worker pool, filling the cost cache. Two workers racing
// to the same key both compute the same pure value, so the final cached
// float is scheduling-independent.
func (t *Tuner) warmProbes(entries []history.Entry, relevant [][]*views.View, workers int) error {
	var tasks []probe
	for i, e := range entries {
		rel := relevant[i]
		if len(rel) == 0 {
			continue
		}
		tasks = append(tasks, probe{e: e})
		for _, v := range rel {
			tasks = append(tasks,
				probe{e: e, dw: []*views.View{v}},
				probe{e: e, hv: []*views.View{v}})
		}
		for a := 0; a < len(rel); a++ {
			for b := a + 1; b < len(rel); b++ {
				tasks = append(tasks, probe{e: e, dw: []*views.View{rel[a], rel[b]}})
			}
		}
	}
	return runParallel(workers, "tuner what-if", len(tasks), func(i int) {
		t.cost(tasks[i].e, tasks[i].hv, tasks[i].dw)
	})
}

// runParallel runs fn(0..n-1) across at most `workers` goroutines, pulling
// indices from an atomic counter so uneven task costs balance themselves.
// workers <= 1 (or a trivial n) degenerates to a plain serial loop on the
// calling goroutine. A panicking task — serial or pooled — is contained
// by govern.Capture and returned as a typed govern.ErrInternal carrying
// op, so a bad what-if probe fails one Tune call, not the process; the
// remaining workers stop claiming tasks once any task fails.
func runParallel(workers int, op string, n int, fn func(int)) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 || n <= 1 {
		for i := 0; i < n; i++ {
			if err := govern.Capture(op, func() error { fn(i); return nil }); err != nil {
				return err
			}
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var failed atomic.Bool
	var mu sync.Mutex
	var firstErr error
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := govern.Capture(op, func() error { fn(i); return nil }); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					failed.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// relevantViews returns the subset of the (name-sorted) universe matching
// some node of the plan, in universe order. The plan is walked and
// described exactly once; each view then matches against the precomputed
// per-node signatures and descriptors (views.MatchDescriptor) instead of
// re-walking the plan.
func relevantViews(plan *logical.Node, universe []*views.View) []*views.View {
	nodes := plan.Nodes()
	sigs := make([]string, len(nodes))
	descs := make([]*logical.Descriptor, len(nodes))
	for i, n := range nodes {
		sigs[i] = n.Signature()
		descs[i] = logical.Describe(n)
	}
	var rel []*views.View
	for _, v := range universe {
		for i := range nodes {
			if sigs[i] == v.Sig {
				rel = append(rel, v)
				break
			}
			if v.ExactOnly {
				continue
			}
			if _, ok := views.MatchDescriptor(descs[i], v); ok {
				rel = append(rel, v)
				break
			}
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

func remainingBudget(total, used int64) int64 {
	r := total - used
	if r < 0 {
		return 0
	}
	return r
}

func max0(f float64) float64 {
	if f < 0 {
		return 0
	}
	return f
}
