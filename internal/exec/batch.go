// Fused columnar pipelines. RunPlan fuses every maximal Filter/Project
// chain (optionally topped by an Aggregate) into one morsel pass over the
// chain's source: each morsel refines a selection vector through the
// filters, materializes projected rows only for survivors, and feeds the
// aggregate's hash phase directly — no intermediate Table per operator.
//
// The source is a materialized table or an Extract. An Extract source
// scans each morsel's raw lines into the worker's scan buffer, which the
// next morsel overwrites; the stages read it in place, and rows leave it
// once, copied, for the survivors at the chain's top. An Extract with no
// stage above it is the same pass with an empty chain: every row survives.
//
// Outputs stay byte-identical to running the operators one at a time (and
// therefore to the reference operators): morsel boundaries are fixed by the
// source input, survivors keep global input order, and the aggregate's
// partitions visit rows in that order. The nodes inside a pass build no
// table but report, through note, the exact row count and encoded bytes
// that table would have had.
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

// fusedSource is the bottom of a fused pipeline.
type fusedSource struct {
	// in is the source table: schema, scale factor and — for a materialized
	// source — the rows.
	in *storage.Table
	// scan, when non-nil, makes the source an Extract read from raw lines;
	// in then carries no rows.
	scan *lineScan
}

func (s fusedSource) numRows() int {
	if s.scan != nil {
		return len(s.scan.lines)
	}
	return len(s.in.Rows)
}

// runFusedSafe wraps the fused pipeline with the same node-boundary
// governance as runNodeSafe: cancellation checked up front, panics
// converted to typed internal errors naming the top operator.
func runFusedSafe(chain []*logical.Node, env *Env, src fusedSource, note func(*logical.Node, NodeStat)) (t *storage.Table, err error) {
	if cerr := env.cancelErr(); cerr != nil {
		return nil, cerr
	}
	defer func() {
		if v := recover(); v != nil {
			op := logical.KindExtract
			if len(chain) > 0 {
				op = chain[0].Kind
			}
			t = nil
			err = govern.NewPanicError(op.String(), v, debug.Stack())
		}
	}()
	return runFusedChain(chain, env, src, note)
}

// fusedStage is one operator of a fused pipeline, bottom-up, bound to the
// schema segment it reads (segments change at each Project).
type fusedStage struct {
	node *logical.Node
	seg  int
}

// fusedWorker holds one worker's compiled evaluators and scratch: one
// Batch per schema segment, batch evaluators per stage, reusable
// selection/hash buffers, and the scan buffer of an Extract source.
// Everything obeys the expr single-goroutine contract — one fusedWorker per
// pool worker.
type fusedWorker struct {
	batches []*expr.Batch
	preds   []expr.BatchCompiled   // by stage index; nil unless Filter
	projs   [][]expr.BatchCompiled // by stage index; nil unless Project
	groups  []expr.BatchCompiled   // aggregate group keys (top stage only)
	sel     []int32
	scan    *scanBuf
}

// newFusedWorker compiles one worker's evaluators; selRows is the largest
// morsel it can be handed, min(morselRows, input rows).
func newFusedWorker(stages []fusedStage, segs []*storage.Schema, selRows int) (*fusedWorker, error) {
	fw := &fusedWorker{
		batches: make([]*expr.Batch, len(segs)),
		preds:   make([]expr.BatchCompiled, len(stages)),
		projs:   make([][]expr.BatchCompiled, len(stages)),
		sel:     make([]int32, 0, selRows),
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
			evals, err := compileProjs(st.node.Projs, in)
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

// fusedMorselAgg is one morsel's contribution to an aggregate: its input
// rows (post filter/project, in input order), their cached group-key values
// and key hashes, and the partition buckets of local row indices.
type fusedMorselAgg struct {
	rows    []storage.Row
	keys    []storage.Value
	hashes  []uint64
	buckets rowBuckets
}

// stageMeters accumulates per-stage counters across morsel workers. Slot 0
// is the Extract source (idle over a table source), slot si+1 is stage si.
type stageMeters []stageMeter

type stageMeter struct {
	nanos   atomic.Int64
	rows    atomic.Int64
	bytes   atomic.Int64 // encoded size of the stage's output rows; kept exact under the top only
	rowsIn  atomic.Int64
	batches atomic.Int64
}

func (m stageMeters) add(slot int, since time.Time, rowsIn, rowsOut int, bytes int64) {
	sm := &m[slot]
	sm.nanos.Add(time.Since(since).Nanoseconds())
	sm.rows.Add(int64(rowsOut))
	sm.bytes.Add(bytes)
	sm.rowsIn.Add(int64(rowsIn))
	sm.batches.Add(1)
}

// selEncodedSize sums the encoded size of the selected rows.
func selEncodedSize(rows []storage.Row, sel []int32) int64 {
	var n int64
	for _, i := range sel {
		n += rows[i].EncodedSize()
	}
	return n
}

// gatherRows returns the selected rows (all of them when sel is nil) as a
// dense slice. With copyValues the rows are copied into one fresh value
// block, which is how survivors leave a scan buffer the next morsel
// overwrites; without it the result references the input rows.
func gatherRows(rows []storage.Row, sel []int32, copyValues bool) []storage.Row {
	n := len(rows)
	if sel != nil {
		n = len(sel)
	}
	out := make([]storage.Row, n)
	if !copyValues {
		for j, i := range sel {
			out[j] = rows[i]
		}
		return out
	}
	if n == 0 {
		return out
	}
	width := len(rows[0])
	flat := make([]storage.Value, n*width)
	for j := range out {
		i := j
		if sel != nil {
			i = int(sel[j])
		}
		out[j] = storage.Row(flat[j*width : (j+1)*width : (j+1)*width])
		copy(out[j], rows[i])
	}
	return out
}

// runFusedChain runs chain (top first; empty for a bare Extract) as one
// morsel pass over src and returns the table of the chain's top. note, when
// non-nil, receives the NodeStat of every node under the top: the Extract
// of a scan source and the chain's inner stages.
func runFusedChain(chain []*logical.Node, env *Env, src fusedSource, note func(*logical.Node, NodeStat)) (*storage.Table, error) {
	// Stages bottom-up; schema segments start at the source schema and
	// advance at every Project.
	segs := []*storage.Schema{src.in.Schema}
	stages := make([]fusedStage, 0, len(chain))
	for i := len(chain) - 1; i >= 0; i-- {
		n := chain[i]
		stages = append(stages, fusedStage{node: n, seg: len(segs) - 1})
		if n.Kind == logical.KindProject {
			segs = append(segs, n.Schema())
		}
	}
	var top *logical.Node
	if len(stages) > 0 {
		top = stages[len(stages)-1].node
	}
	aggTop := top != nil && top.Kind == logical.KindAggregate

	if src.scan != nil && len(stages) > 0 && stages[0].node.Kind == logical.KindFilter {
		src.scan.deferUnread(stages[0].node.Pred)
	}

	nRows := src.numRows()
	mr := env.morselRows()
	workers := opWorkers(env, nRows)
	sc := env.scope()
	defer sc.Release()
	fws := make([]*fusedWorker, workers)
	for w := range fws {
		fw, err := newFusedWorker(stages, segs, min(mr, nRows))
		if err != nil {
			return nil, err
		}
		if src.scan != nil {
			if fw.scan, err = src.scan.borrowBuf(env, w, min(mr, nRows)); err != nil {
				return nil, err
			}
		}
		fws[w] = fw
	}

	meters := make(stageMeters, len(stages)+1)
	passStart := time.Now()
	nMorsels := morselCount(nRows, mr)
	var chunks [][]storage.Row
	var sizes []int64
	var aggParts []fusedMorselAgg
	nG := 0
	if aggTop {
		nG = len(top.GroupBy)
		aggParts = make([]fusedMorselAgg, nMorsels)
	} else {
		chunks = make([][]storage.Row, nMorsels)
		sizes = make([]int64, nMorsels)
	}

	err := forEachMorsel(env, "fused", workers, nRows, mr, func(w, m, start, end int) error {
		fw := fws[w]
		var rows []storage.Row
		// size is the encoded size of the rows the pipeline currently
		// holds — (rows, sel) — or -1 when nobody has needed it yet.
		size := int64(-1)
		// inScanBuf: rows alias the worker's scan buffer and must be
		// copied before the morsel ends.
		inScanBuf := src.scan != nil
		if inScanBuf {
			t0 := time.Now()
			rows, size = src.scan.fill(fw.scan, start, end)
			meters.add(0, t0, end-start, len(rows), size)
		} else {
			rows = src.in.Rows[start:end]
		}
		b := fw.batches[0]
		b.Reset(rows)
		seg := 0
		var sel []int32 // nil = all rows of the current segment
		// survivors returns the rows the pipeline holds as a dense slice
		// that outlives the morsel: projected rows already are one, a
		// trailing filter leaves a selection to gather, and rows still in
		// the scan buffer are copied out of it, charged at their size.
		survivors := func() ([]storage.Row, error) {
			out := rows
			if sel != nil || inScanBuf {
				out = gatherRows(rows, sel, inScanBuf)
			}
			if inScanBuf {
				if size < 0 {
					size = rowsEncodedSize(out)
				}
				if err := env.reserve(sc, size); err != nil {
					return nil, err
				}
			}
			return out, nil
		}
		for si := range stages {
			st := &stages[si]
			inner := si < len(stages)-1
			rowsIn := len(rows)
			if sel != nil {
				rowsIn = len(sel)
			}
			t0 := time.Now()
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
				if si == 0 && inScanBuf && len(src.scan.pendCols) > 0 {
					// The survivors' deferred literals become values before
					// anything can read them. That is the Extract's work:
					// its meter gets the time and the filter's start moves.
					tc := time.Now()
					src.scan.finish(fw.scan, sel)
					d := time.Since(tc)
					meters[0].nanos.Add(d.Nanoseconds())
					t0 = t0.Add(d)
				}
				rowsOut = len(sel)
				size = -1
				if inner {
					size = selEncodedSize(rows, sel)
				}
			case logical.KindProject:
				out := materializeBatch(b, sel, fw.projs[si], len(st.node.Projs))
				size = rowsEncodedSize(out)
				if err := env.reserve(sc, size); err != nil {
					return err
				}
				rows = out
				sel = nil
				inScanBuf = false
				seg++
				b = fw.batches[seg]
				b.Reset(rows)
				rowsOut = len(rows)
			case logical.KindAggregate:
				nOut := rowsIn
				// Group keys are evaluated column-wise and cached; the
				// partition hash chains the key vectors in declaration
				// order with the fast internal mix hash (NULL keys
				// participate — grouping treats NULL as a real key value).
				keys := make([]storage.Value, nOut*nG)
				hs := make([]uint64, nOut)
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
				if err := env.reserve(sc, int64(nOut)*(refRowCost+valueCost*int64(nG)+hashCost+idxCost)); err != nil {
					return err
				}
				aggRows, err := survivors()
				if err != nil {
					return err
				}
				aggParts[m] = fusedMorselAgg{rows: aggRows, keys: keys, hashes: hs, buckets: bkt}
				rowsOut = nOut
			}
			meters.add(si+1, t0, rowsIn, rowsOut, max(size, 0))
		}
		if !aggTop {
			chunk, err := survivors()
			if err != nil {
				return err
			}
			if size < 0 {
				size = rowsEncodedSize(chunk)
			}
			chunks[m], sizes[m] = chunk, size
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	passWall := time.Since(passStart)

	var out *storage.Table
	tailStart := time.Now()
	if aggTop {
		out, err = finishFusedAggregate(top, env, sc, workers, src.in, segs[len(segs)-1], aggParts)
		if err != nil {
			return nil, err
		}
		// The meter counted the aggregate's phase-1 consumed rows as its
		// output; the real output is the merged group rows.
		meters[len(stages)].rows.Store(int64(len(out.Rows)))
	} else {
		out = src.in // a bare Extract fills its own table
		if top != nil {
			out = newOutput(top, src.in)
		}
		if out, err = appendBlocks(env, out, chunks, sizes); err != nil {
			return nil, err
		}
	}

	if note != nil {
		if src.scan != nil {
			note(src.scan.node, NodeStat{Rows: meters[0].rows.Load(), RawBytes: meters[0].bytes.Load(), ScaleFactor: src.in.ScaleFactor})
		}
		sf := max(0, src.in.ScaleFactor) // what newOutput gives every stage's table
		for si := 0; si < len(stages)-1; si++ {
			note(stages[si].node, NodeStat{Rows: meters[si+1].rows.Load(), RawBytes: meters[si+1].bytes.Load(), ScaleFactor: sf})
		}
	}
	if env.Stats != nil {
		recordFusedStats(env.Stats, src, stages, meters, passWall, time.Since(tailStart))
	}
	return out, nil
}

// recordFusedStats books one fused pass in the per-kind Stats rows. The
// stage meters sum time over workers; each stage is booked its share of
// the pass's wall clock instead, so the rows still add up to elapsed time
// as they do for operators run alone. The serial tail after the pass (the
// merge, the aggregate's partition phases) belongs to the top stage.
func recordFusedStats(stats *Stats, src fusedSource, stages []fusedStage, meters stageMeters, passWall, tail time.Duration) {
	var sum int64
	for i := range meters {
		sum += meters[i].nanos.Load()
	}
	share := func(slot int) time.Duration {
		if sum == 0 {
			return 0
		}
		return time.Duration(float64(passWall) * float64(meters[slot].nanos.Load()) / float64(sum))
	}
	topSlot := len(stages)
	if src.scan != nil {
		d := share(0)
		if topSlot == 0 {
			d += tail
		}
		stats.record(logical.KindExtract, int(meters[0].rows.Load()), d)
	}
	for si, st := range stages {
		d := share(si + 1)
		if si+1 == topSlot {
			d += tail
		}
		stats.record(st.node.Kind, int(meters[si+1].rows.Load()), d)
		stats.recordColumnar(st.node.Kind, meters[si+1].batches.Load(), meters[si+1].rowsIn.Load())
	}
}

// finishFusedAggregate runs phases 2 and 3 of the hash aggregation over
// what the morsels left in parts (phase 1: key hashes and partition
// buckets) on at most the fused pass's workers, so the partitions of a
// one-morsel input build on the calling goroutine. Phase 2 runs the
// partitions in parallel; each visits its rows
// in global input order (ordinals are morsel-major), so every group
// accumulates exactly as it would serially — float sums associate
// identically. Group lookup is a single integer-keyed probe on the
// precomputed hash with value-wise collision verification (the kind-tagged
// relation the reference operators' tagged-key strings induce; the hash
// only has to place tagged-key-equal rows together, which MixInto
// guarantees), instead of a key string per row. Phase 3 merges groups
// ordered by first-seen input row, the reference operators' output order.
func finishFusedAggregate(n *logical.Node, env *Env, sc *govern.Scope, workers int, src *storage.Table, inSchema *storage.Schema, parts []fusedMorselAgg) (*storage.Table, error) {
	nG := len(n.GroupBy)
	// Global ordinal base of each morsel's aggregate input.
	bases := make([]int64, len(parts)+1)
	for m := range parts {
		bases[m+1] = bases[m] + int64(len(parts[m].rows))
	}

	workers = min(workers, partitions)
	argSets := make([][]expr.Compiled, workers)
	for w := range argSets {
		args, err := compileAggArgs(n, inSchema)
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
		// Hash collisions between distinct keys spill to the overflow
		// chain, which stays empty in practice.
		first := make(map[uint64]*group)
		var overflow map[uint64][]*group
		var groupBytes int64
		var local []*group
		for mi := range parts {
			part := &parts[mi]
			for _, j := range part.buckets[p] {
				h := part.hashes[j]
				kv := storage.Row(part.keys[int(j)*nG : int(j)*nG+nG])
				grp := first[h]
				spill := false
				if grp != nil && !distinctRowsEqual(kv, grp.key) {
					grp, spill = nil, true
					for _, g := range overflow[h] {
						if distinctRowsEqual(kv, g.key) {
							grp = g
							break
						}
					}
				}
				if grp == nil {
					grp = &group{key: kv.Clone(), states: newAggStates(n.Aggs), first: bases[mi] + int64(j)}
					if spill {
						if overflow == nil {
							overflow = make(map[uint64][]*group)
						}
						overflow[h] = append(overflow[h], grp)
					} else {
						first[h] = grp
					}
					local = append(local, grp)
					groupBytes += grp.key.EncodedSize() + groupCost
				}
				accumulateRow(n.Aggs, grp.states, args, part.rows[j])
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
