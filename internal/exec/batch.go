// Fused columnar pipelines. When the morsel engine executes a subtree via
// Run, maximal Filter/Project chains (optionally topped by an Aggregate)
// are fused into one morsel pass over the chain's materialized input: each
// morsel refines a selection vector through the filters, materializes
// projected rows only for survivors, and feeds the aggregate's hash phase
// directly — no intermediate Table per operator. Outputs stay
// byte-identical to running the operators one at a time (and therefore to
// the reference operators): morsel boundaries are fixed by the source input,
// survivors keep global input order, and the aggregate's partitions visit
// rows in that order.
//
// Fusion applies only inside Run. RunNode executes exactly one operator —
// hv and dw drive plans node by node (hv retains intermediates for
// opportunistic view capture) and are unaffected.
package exec

import (
	"runtime/debug"
	"sort"
	"sync/atomic"
	"time"

	"miso/internal/expr"
	"miso/internal/govern"
	"miso/internal/logical"
	"miso/internal/storage"
)

// fusableChain returns the chain [n, child, ...] of fusable stages ending
// at n — Filter/Project nodes, plus Aggregate at the top only — or nil if
// fewer than two stages would fuse.
func fusableChain(n *logical.Node) []*logical.Node {
	switch n.Kind {
	case logical.KindFilter, logical.KindProject, logical.KindAggregate:
	default:
		return nil
	}
	chain := []*logical.Node{n}
	cur := n
	for len(cur.Children) == 1 {
		c := cur.Children[0]
		if c.Kind != logical.KindFilter && c.Kind != logical.KindProject {
			break
		}
		chain = append(chain, c)
		cur = c
	}
	if len(chain) < 2 {
		return nil
	}
	return chain
}

// runFusedSafe wraps the fused pipeline with the same node-boundary
// governance as runNodeSafe: cancellation checked up front, panics
// converted to typed internal errors naming the top operator.
func runFusedSafe(chain []*logical.Node, env *Env, src *storage.Table) (t *storage.Table, err error) {
	if cerr := env.cancelErr(); cerr != nil {
		return nil, cerr
	}
	defer func() {
		if v := recover(); v != nil {
			t = nil
			err = govern.NewPanicError(chain[0].Kind.String(), v, debug.Stack())
		}
	}()
	return runFusedChain(chain, env, src)
}

// fusedStage is one operator of a fused pipeline, bottom-up, bound to the
// schema segment it reads (segments change at each Project).
type fusedStage struct {
	node *logical.Node
	seg  int
}

// fusedWorker holds one worker's compiled evaluators and scratch: one
// Batch per schema segment, batch evaluators per stage, and reusable
// selection/hash buffers. Everything obeys the expr single-goroutine
// contract — one fusedWorker per pool worker.
type fusedWorker struct {
	batches []*expr.Batch
	preds   []expr.BatchCompiled // by stage index; nil unless Filter
	projs   [][]projEval         // by stage index; nil unless Project
	groups  []expr.BatchCompiled // aggregate group keys (top stage only)
	sel     []int32
	hs      []uint64
}

func newFusedWorker(stages []fusedStage, segs []*storage.Schema, morselRows int) (*fusedWorker, error) {
	fw := &fusedWorker{
		batches: make([]*expr.Batch, len(segs)),
		preds:   make([]expr.BatchCompiled, len(stages)),
		projs:   make([][]projEval, len(stages)),
		sel:     make([]int32, 0, morselRows),
	}
	for i, s := range segs {
		fw.batches[i] = expr.NewBatch(s)
	}
	for si, st := range stages {
		in := segs[st.seg]
		switch st.node.Kind {
		case logical.KindFilter:
			c, err := expr.CompileBatch(st.node.Pred, in)
			if err != nil {
				return nil, err
			}
			fw.preds[si] = c
		case logical.KindProject:
			evals, err := compileProjEvals(st.node.Projs, in)
			if err != nil {
				return nil, err
			}
			fw.projs[si] = evals
		case logical.KindAggregate:
			groups := make([]expr.BatchCompiled, len(st.node.GroupBy))
			for k, g := range st.node.GroupBy {
				c, err := expr.CompileBatch(g.Expr, in)
				if err != nil {
					return nil, err
				}
				groups[k] = c
			}
			fw.groups = groups
		}
	}
	return fw, nil
}

// fusedMorselAgg is one morsel's contribution to a fused aggregate: the
// aggregate's input rows (post filter/project, in input order), their
// cached group-key values, and the partition buckets of local row indices.
type fusedMorselAgg struct {
	rows    []storage.Row
	keys    []storage.Value
	buckets rowBuckets
}

// stageMeters accumulates per-stage stats across morsel workers.
type stageMeters struct {
	nanos   []atomic.Int64
	rows    []atomic.Int64
	rowsIn  []atomic.Int64
	batches []atomic.Int64
}

func newStageMeters(n int) *stageMeters {
	return &stageMeters{
		nanos:   make([]atomic.Int64, n),
		rows:    make([]atomic.Int64, n),
		rowsIn:  make([]atomic.Int64, n),
		batches: make([]atomic.Int64, n),
	}
}

func runFusedChain(chain []*logical.Node, env *Env, src *storage.Table) (*storage.Table, error) {
	// Stages bottom-up; schema segments start at the source schema and
	// advance at every Project.
	segs := []*storage.Schema{src.Schema}
	stages := make([]fusedStage, 0, len(chain))
	for i := len(chain) - 1; i >= 0; i-- {
		n := chain[i]
		stages = append(stages, fusedStage{node: n, seg: len(segs) - 1})
		if n.Kind == logical.KindProject {
			segs = append(segs, n.Schema())
		}
	}
	top := stages[len(stages)-1].node
	aggTop := top.Kind == logical.KindAggregate

	nRows := len(src.Rows)
	mr := env.morselRows()
	workers := opWorkers(env, nRows)
	fws := make([]*fusedWorker, workers)
	for w := range fws {
		fw, err := newFusedWorker(stages, segs, mr)
		if err != nil {
			return nil, err
		}
		fws[w] = fw
	}

	sc := env.scope()
	defer sc.Release()
	meters := newStageMeters(len(stages))
	timed := env.Stats != nil
	nMorsels := morselCount(nRows, mr)
	var chunks [][]storage.Row
	var aggParts []fusedMorselAgg
	nG := 0
	if aggTop {
		nG = len(top.GroupBy)
		aggParts = make([]fusedMorselAgg, nMorsels)
	} else {
		chunks = make([][]storage.Row, nMorsels)
	}

	err := forEachMorsel(env, "fused", workers, nRows, mr, func(w, m, start, end int) error {
		fw := fws[w]
		rows := src.Rows[start:end]
		b := fw.batches[0]
		b.Reset(rows)
		seg := 0
		var sel []int32 // nil = all rows of the current segment
		for si := range stages {
			st := &stages[si]
			rowsIn := len(rows)
			if sel != nil {
				rowsIn = len(sel)
			}
			var t0 time.Time
			if timed {
				t0 = time.Now()
			}
			var rowsOut int
			switch st.node.Kind {
			case logical.KindFilter:
				vec := fw.preds[si](b, sel)
				if sel == nil {
					sel = vec.TruesInto(fw.sel[:0], 0)
				} else {
					sel = expr.RefineSelection(sel, vec)
				}
				if err := env.reserve(sc, refRowCost*int64(len(sel))); err != nil {
					return err
				}
				rowsOut = len(sel)
			case logical.KindProject:
				out := materializeBatch(b, sel, fw.projs[si], len(st.node.Projs))
				if err := env.reserve(sc, rowsEncodedSize(out)); err != nil {
					return err
				}
				rows = out
				sel = nil
				seg++
				b = fw.batches[seg]
				b.Reset(rows)
				rowsOut = len(rows)
			case logical.KindAggregate:
				nOut := len(rows)
				aggRows := rows
				if sel != nil {
					nOut = len(sel)
					aggRows = make([]storage.Row, nOut)
					for j, i := range sel {
						aggRows[j] = rows[i]
					}
				}
				keys := make([]storage.Value, nOut*nG)
				fw.hs = growU64(fw.hs, nOut)
				hs := fw.hs[:nOut]
				for j := range hs {
					hs[j] = storage.HashSeed
				}
				for g, ev := range fw.groups {
					vec := ev(b, sel)
					for j := 0; j < nOut; j++ {
						keys[j*nG+g] = vec.Value(j)
					}
					vec.MixHashInto(hs)
				}
				var bkt rowBuckets
				for j := 0; j < nOut; j++ {
					p := int(hs[j] & (partitions - 1))
					bkt[p] = append(bkt[p], int32(j))
				}
				if err := env.reserve(sc, int64(nOut)*(refRowCost+valueCost*int64(nG)+idxCost)); err != nil {
					return err
				}
				aggParts[m] = fusedMorselAgg{rows: aggRows, keys: keys, buckets: bkt}
				rowsOut = nOut
			}
			if timed {
				meters.nanos[si].Add(time.Since(t0).Nanoseconds())
			}
			meters.rows[si].Add(int64(rowsOut))
			meters.rowsIn[si].Add(int64(rowsIn))
			meters.batches[si].Add(1)
		}
		if !aggTop {
			// Materialize the morsel's output chunk: projected rows are
			// already dense; a trailing filter leaves a selection to gather.
			if sel != nil {
				chunk := make([]storage.Row, len(sel))
				for j, i := range sel {
					chunk[j] = rows[i]
				}
				chunks[m] = chunk
			} else {
				chunks[m] = rows
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var out *storage.Table
	var aggExtra time.Duration
	if aggTop {
		t0 := time.Now()
		out, err = finishFusedAggregate(top, env, sc, src, aggParts, nG)
		if err != nil {
			return nil, err
		}
		aggExtra = time.Since(t0)
		// The meter counted the aggregate's phase-1 consumed rows as its
		// output; the real output is the merged group rows.
		meters.rows[len(stages)-1].Store(int64(len(out.Rows)))
	} else {
		total := 0
		for _, c := range chunks {
			total += len(c)
		}
		out = newOutput(top, src)
		out.Rows = make([]storage.Row, 0, total)
		if out, err = appendChunks(env, out, chunks); err != nil {
			return nil, err
		}
	}

	if timed {
		for si, st := range stages {
			d := time.Duration(meters.nanos[si].Load())
			if si == len(stages)-1 {
				d += aggExtra
			}
			env.Stats.record(st.node.Kind, int(meters.rows[si].Load()), d)
			env.Stats.recordColumnar(st.node.Kind, meters.batches[si].Load(), meters.rowsIn[si].Load())
		}
	}
	return out, nil
}

// finishFusedAggregate runs phases 2 and 3 of the fused aggregate: per-
// partition accumulation in global input order (ordinals are morsel-major,
// matching the reference operators' row order exactly), then a first-seen merge.
func finishFusedAggregate(n *logical.Node, env *Env, sc *govern.Scope, src *storage.Table, parts []fusedMorselAgg, nG int) (*storage.Table, error) {
	// Global ordinal base of each morsel's aggregate input.
	bases := make([]int64, len(parts)+1)
	for m := range parts {
		bases[m+1] = bases[m] + int64(len(parts[m].rows))
	}

	workers := env.workerCount()
	argSets := make([][]expr.Compiled, workers)
	var aggInSchema *storage.Schema
	if len(n.Children) == 1 && n.Children[0].Schema() != nil {
		aggInSchema = n.Children[0].Schema()
	}
	for w := range argSets {
		args, err := compileAggArgs(n, aggInSchema)
		if err != nil {
			return nil, err
		}
		argSets[w] = args
	}

	type group struct {
		key    storage.Row
		states []*aggState
		first  int64
	}
	partGroups := make([][]*group, partitions)
	err := forEachTask(env, "agg-build", workers, partitions, func(w, p int) error {
		args := argSets[w]
		m := make(map[string]*group)
		var keyBuf []byte
		var groupBytes int64
		var local []*group
		for mi := range parts {
			part := &parts[mi]
			for _, j := range part.buckets[p] {
				row := part.rows[j]
				kv := part.keys[int(j)*nG : int(j)*nG+nG]
				keyBuf = keyBuf[:0]
				for _, v := range kv {
					keyBuf = appendTaggedKey(keyBuf, v)
					keyBuf = append(keyBuf, 0)
				}
				grp := m[string(keyBuf)]
				if grp == nil {
					grp = &group{
						key:    append(storage.Row(nil), kv...),
						states: newAggStates(n.Aggs),
						first:  bases[mi] + int64(j),
					}
					m[string(keyBuf)] = grp
					local = append(local, grp)
					groupBytes += grp.key.EncodedSize() + groupCost
				}
				accumulateRow(n.Aggs, grp.states, args, row)
			}
		}
		if err := env.reserve(sc, groupBytes); err != nil {
			return err
		}
		partGroups[p] = local
		return nil
	})
	if err != nil {
		return nil, err
	}

	var all []*group
	for _, p := range partGroups {
		all = append(all, p...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].first < all[b].first })

	out := newOutput(n, src)
	if len(all) == 0 && nG == 0 {
		return emptyGlobalAggRow(n, out), nil
	}
	for j, grp := range all {
		if j%cancelPollRows == cancelPollRows-1 {
			if err := env.cancelErr(); err != nil {
				return nil, err
			}
		}
		row := make(storage.Row, 0, n.Schema().Len())
		row = append(row, grp.key...)
		for i, a := range n.Aggs {
			v, err := finishAgg(a, grp.states[i])
			if err != nil {
				return nil, err
			}
			row = append(row, v)
		}
		out.MustAppend(row)
	}
	return out, nil
}
