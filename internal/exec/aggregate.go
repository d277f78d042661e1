package exec

import (
	"fmt"
	"sort"

	"miso/internal/expr"
	"miso/internal/logical"
	"miso/internal/storage"
)

// aggState accumulates one aggregate for one group.
type aggState struct {
	count    int64
	sum      float64
	sumInt   int64
	isInt    bool
	min, max storage.Value
	distinct map[string]bool
	seenAny  bool
}

func newAggStates(aggs []logical.AggSpec) []*aggState {
	states := make([]*aggState, len(aggs))
	for i, a := range aggs {
		states[i] = &aggState{isInt: true}
		if a.Distinct {
			states[i].distinct = map[string]bool{}
		}
	}
	return states
}

// accumulateRow feeds one input row into a group's states. Both engines
// call it with rows in global input order, so per-group accumulation —
// including float SUM/AVG association — is identical between them.
func accumulateRow(aggs []logical.AggSpec, states []*aggState, argEvals []expr.Compiled, row storage.Row) {
	for i, a := range aggs {
		st := states[i]
		if a.Star {
			st.count++
			continue
		}
		v := argEvals[i](row)
		if v.IsNull() {
			continue
		}
		if a.Distinct {
			dk := string(appendTaggedKey(nil, v))
			if st.distinct[dk] {
				continue
			}
			st.distinct[dk] = true
		}
		st.count++
		if f, ok := v.AsFloat(); ok {
			st.sum += f
			if i64, ok := v.AsInt(); ok && v.Kind == storage.KindInt {
				st.sumInt += i64
			} else {
				st.isInt = false
			}
		} else {
			st.isInt = false
		}
		if !st.seenAny {
			st.min, st.max = v, v
			st.seenAny = true
		} else {
			if storage.Compare(v, st.min) < 0 {
				st.min = v
			}
			if storage.Compare(v, st.max) > 0 {
				st.max = v
			}
		}
	}
}

func compileAggArgs(n *logical.Node, schema *storage.Schema) ([]expr.Compiled, error) {
	argEvals := make([]expr.Compiled, len(n.Aggs))
	for i, a := range n.Aggs {
		if a.Star {
			continue
		}
		c, err := expr.Compile(a.Arg, schema)
		if err != nil {
			return nil, err
		}
		argEvals[i] = c
	}
	return argEvals, nil
}

// emptyGlobalAggRow handles a global aggregate over an empty input, which
// still yields one row.
func emptyGlobalAggRow(n *logical.Node, out *storage.Table) *storage.Table {
	row := make(storage.Row, n.Schema().Len())
	for i, a := range n.Aggs {
		if a.Func == "COUNT" {
			row[i] = storage.IntValue(0)
		} else {
			row[i] = storage.Null
		}
	}
	out.MustAppend(row)
	return out
}

// groupColIndexes resolves every group expression to its input column
// index when all of them are bare column references — the common case — or
// returns nil otherwise. A global aggregate (no GROUP BY) resolves to an
// empty non-nil slice and takes the fast path trivially.
func groupColIndexes(groupBy []logical.Proj, schema *storage.Schema) []int {
	idx := make([]int, 0, len(groupBy))
	for _, g := range groupBy {
		cr, ok := g.Expr.(*expr.ColRef)
		if !ok {
			return nil
		}
		c := schema.Index(cr.Name)
		if c < 0 {
			return nil
		}
		idx = append(idx, c)
	}
	return idx
}

// runAggregateMorsel is the morsel engine's hash aggregation, in three
// phases. Phase 1 computes each row's group-key mix hash in parallel
// morsels and buckets rows into a fixed number of partitions — reading key
// values straight out of the rows when every group expression is a bare
// column reference, and batch-evaluating the expressions over column
// vectors (scattering the results into a key cache) otherwise. Phase 2
// runs the partitions in parallel; each partition visits its rows in
// global input order, so every group accumulates exactly as it would
// serially — float sums associate identically. Group lookup is a single
// integer-keyed probe on the precomputed hash with value-wise collision
// verification (the same kind-tagged relation the reference operators'
// tagged-key strings induce), instead of rebuilding a key string per row.
// Phase 3 merges groups ordered by first-seen input row, recovering the
// serial engine's first-seen output order.
func runAggregateMorsel(n *logical.Node, env *Env, in *storage.Table) (*storage.Table, error) {
	nRows := len(in.Rows)
	mr := env.morselRows()
	workers := env.workerCount()
	nG := len(n.GroupBy)
	colIdx := groupColIndexes(n.GroupBy, in.Schema)

	workerArgs := make([][]expr.Compiled, workers)
	for w := 0; w < workers; w++ {
		args, err := compileAggArgs(n, in.Schema)
		if err != nil {
			return nil, err
		}
		workerArgs[w] = args
	}

	sc := env.scope()
	defer sc.Release()
	hashes := make([]uint64, nRows)
	buckets := make([]rowBuckets, morselCount(nRows, mr))
	var keyVals []storage.Value
	if colIdx != nil {
		// Fast path: group keys are input columns, so each morsel hashes
		// them row-major straight out of the rows — no batch evaluation,
		// no key cache.
		if err := env.reserve(sc, int64(nRows)*(idxCost+hashCost)); err != nil {
			return nil, err
		}
		err := forEachMorsel(env, "agg-hash", workers, nRows, mr, func(_, m, start, end int) error {
			hs := hashes[start:end]
			var bkt rowBuckets
			for j := range hs {
				row := in.Rows[start+j]
				h := storage.HashSeed
				for _, c := range colIdx {
					h = row[c].MixInto(h)
				}
				hs[j] = h
				p := int(h & (partitions - 1))
				bkt[p] = append(bkt[p], int32(start+j))
			}
			buckets[m] = bkt
			return nil
		})
		if err != nil {
			return nil, err
		}
	} else {
		type evalSet struct {
			groups []expr.BatchCompiled
			batch  *expr.Batch
		}
		sets := make([]evalSet, workers)
		for w := 0; w < workers; w++ {
			groups := make([]expr.BatchCompiled, nG)
			for i, g := range n.GroupBy {
				c, err := expr.CompileBatch(g.Expr, in.Schema)
				if err != nil {
					return nil, err
				}
				groups[i] = c
			}
			sets[w] = evalSet{groups: groups, batch: expr.NewBatch(in.Schema)}
		}
		if err := env.reserve(sc, int64(nRows)*(valueCost*int64(nG)+idxCost+hashCost)); err != nil {
			return nil, err
		}
		keyVals = make([]storage.Value, nRows*nG)
		err := forEachMorsel(env, "agg-hash", workers, nRows, mr, func(w, m, start, end int) error {
			set := &sets[w]
			b := set.batch
			b.Reset(in.Rows[start:end])
			nLoc := end - start
			hs := hashes[start:end]
			for j := range hs {
				hs[j] = storage.HashSeed
			}
			// Group keys are evaluated column-wise and scattered into the
			// global key cache; the partition hash chains column vectors
			// in declaration order with the fast internal mix hash (NULL
			// keys participate — grouping treats NULL as a real key
			// value). Group identity is verified value-wise in phase 2, so
			// the hash only has to place tagged-key-equal rows in one
			// partition, which MixInto guarantees.
			for g, ev := range set.groups {
				vec := ev(b, nil)
				for j := 0; j < nLoc; j++ {
					keyVals[(start+j)*nG+g] = vec.Value(j)
				}
				vec.MixHashInto(hs)
			}
			var bkt rowBuckets
			for j := 0; j < nLoc; j++ {
				p := int(hs[j] & (partitions - 1))
				bkt[p] = append(bkt[p], int32(start+j))
			}
			buckets[m] = bkt
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	env.recordColumnar(logical.KindAggregate, int64(len(buckets)), int64(nRows))

	// keyEqual and keyClone read row i's group key from wherever phase 1
	// left it: the input row itself (fast path) or the key cache. Both are
	// called concurrently by phase 2 but only read shared state.
	keyEqual := func(i int32, key storage.Row) bool {
		if colIdx != nil {
			row := in.Rows[i]
			for g, c := range colIdx {
				if !valueKeyEqual(row[c], key[g]) {
					return false
				}
			}
			return true
		}
		return distinctRowsEqual(keyVals[int(i)*nG:int(i)*nG+nG], key)
	}
	keyClone := func(i int32) storage.Row {
		key := make(storage.Row, nG)
		if colIdx != nil {
			row := in.Rows[i]
			for g, c := range colIdx {
				key[g] = row[c]
			}
		} else {
			copy(key, keyVals[int(i)*nG:int(i)*nG+nG])
		}
		return key
	}

	type group struct {
		key    storage.Row
		states []*aggState
		first  int32
	}
	parts := make([][]*group, partitions)
	err := forEachTask(env, "agg-build", workers, partitions, func(w, p int) error {
		args := workerArgs[w]
		// Hash collisions between distinct keys spill to the overflow
		// chain, which stays empty in practice.
		first := make(map[uint64]*group)
		var overflow map[uint64][]*group
		var groupBytes int64
		var local []*group
		for _, b := range buckets {
			for _, i := range b[p] {
				h := hashes[i]
				grp := first[h]
				spill := false
				if grp != nil && !keyEqual(i, grp.key) {
					grp = nil
					spill = true
					for _, g := range overflow[h] {
						if keyEqual(i, g.key) {
							grp = g
							break
						}
					}
				}
				if grp == nil {
					grp = &group{
						key:    keyClone(i),
						states: newAggStates(n.Aggs),
						first:  i,
					}
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
				accumulateRow(n.Aggs, grp.states, args, in.Rows[i])
			}
		}
		if err := env.reserve(sc, groupBytes); err != nil {
			return err
		}
		parts[p] = local
		return nil
	})
	if err != nil {
		return nil, err
	}

	var all []*group
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].first < all[b].first })

	out := newOutput(n, in)
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

func finishAgg(a logical.AggSpec, st *aggState) (storage.Value, error) {
	switch a.Func {
	case "COUNT":
		return storage.IntValue(st.count), nil
	case "SUM":
		if st.count == 0 {
			return storage.Null, nil
		}
		if st.isInt {
			return storage.IntValue(st.sumInt), nil
		}
		return storage.FloatValue(st.sum), nil
	case "AVG":
		if st.count == 0 {
			return storage.Null, nil
		}
		return storage.FloatValue(st.sum / float64(st.count)), nil
	case "MIN":
		if !st.seenAny {
			return storage.Null, nil
		}
		return st.min, nil
	case "MAX":
		if !st.seenAny {
			return storage.Null, nil
		}
		return st.max, nil
	default:
		return storage.Null, fmt.Errorf("exec: unknown aggregate %q", a.Func)
	}
}
