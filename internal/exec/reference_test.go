package exec

// Reference operators: the row-at-a-time engine that used to be selectable
// with Env.Workers < 0, moved here verbatim when the production build kept
// only the morsel engine. They are the oracle the morsel and columnar
// paths are compared against — plain loops over storage.Row with no
// batching, fusion, partitioning or parallelism, so a divergence points at
// the engine under test. exec_test reaches them through RunReference in
// export_test.go.

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"miso/internal/expr"
	"miso/internal/logical"
	"miso/internal/storage"
)

// runReference executes the whole subtree with the reference operators.
// Only the leaf resolvers of env are used.
func runReference(n *logical.Node, env *Env) (*storage.Table, error) {
	var inputs []*storage.Table
	switch n.Kind {
	case logical.KindExtract, logical.KindViewScan, logical.KindScan:
		// Leaf-like: resolved through env below.
	default:
		for _, c := range n.Children {
			t, err := runReference(c, env)
			if err != nil {
				return nil, err
			}
			inputs = append(inputs, t)
		}
	}
	switch n.Kind {
	case logical.KindExtract:
		return runExtract(n, env)
	case logical.KindViewScan:
		return env.ReadView(n.ViewName)
	case logical.KindFilter:
		return runFilter(n, inputs[0])
	case logical.KindProject:
		return runProject(n, inputs[0])
	case logical.KindJoin:
		return runJoin(n, inputs[0], inputs[1])
	case logical.KindAggregate:
		return runAggregate(n, inputs[0])
	case logical.KindDistinct:
		return runDistinct(n, inputs[0])
	case logical.KindSort:
		return runSort(n, inputs[0])
	case logical.KindLimit:
		return runLimit(n, inputs[0]), nil
	default:
		return nil, fmt.Errorf("exec: reference engine cannot run %v", n.Kind)
	}
}

// runExtract applies the SerDe: it parses each JSON line and extracts the
// declared fields with their declared types. Missing or mistyped fields
// yield NULL, as a permissive SerDe does.
func runExtract(n *logical.Node, env *Env) (*storage.Table, error) {
	if env.ReadLog == nil {
		return nil, fmt.Errorf("exec: no log resolver")
	}
	scan := n.Children[0]
	log, err := env.ReadLog(scan.LogName)
	if err != nil {
		return nil, err
	}
	out := storage.NewTable(n.Signature(), n.Schema())
	out.ScaleFactor = log.ScaleFactor
	// Precompile computed (UDF) fields against the extract schema; they
	// reference plain fields, which come first.
	udfEvals := make([]expr.Compiled, len(n.Fields))
	for i, f := range n.Fields {
		if f.UDF == nil {
			continue
		}
		c, err := expr.Compile(f.UDF, n.Schema())
		if err != nil {
			return nil, fmt.Errorf("exec: extract UDF field %q: %w", f.OutName, err)
		}
		udfEvals[i] = c
	}
	for _, line := range log.Lines {
		dec := json.NewDecoder(strings.NewReader(line))
		dec.UseNumber()
		var rec map[string]any
		if err := dec.Decode(&rec); err != nil {
			continue // malformed record: skipped by the SerDe
		}
		row := make(storage.Row, len(n.Fields))
		for i, f := range n.Fields {
			if f.UDF == nil {
				row[i] = coerceJSON(rec[f.LogField], f.Type)
			}
		}
		for i, eval := range udfEvals {
			if eval != nil {
				row[i] = eval(row)
			}
		}
		out.MustAppend(row)
	}
	return out, nil
}

func runFilter(n *logical.Node, in *storage.Table) (*storage.Table, error) {
	pred, err := expr.Compile(n.Pred, in.Schema)
	if err != nil {
		return nil, err
	}
	out := newOutput(n, in)
	for _, row := range in.Rows {
		v := pred(row)
		if !v.IsNull() && v.Bool() {
			out.MustAppend(row)
		}
	}
	return out, nil
}

func runProject(n *logical.Node, in *storage.Table) (*storage.Table, error) {
	evals := make([]expr.Compiled, len(n.Projs))
	for i, p := range n.Projs {
		c, err := expr.Compile(p.Expr, in.Schema)
		if err != nil {
			return nil, err
		}
		evals[i] = c
	}
	out := newOutput(n, in)
	for _, row := range in.Rows {
		nr := make(storage.Row, len(evals))
		for i, e := range evals {
			nr[i] = e(row)
		}
		out.MustAppend(nr)
	}
	return out, nil
}

func runJoin(n *logical.Node, left, right *storage.Table) (*storage.Table, error) {
	lIdx, rIdx, err := joinKeyIndexes(n, left, right)
	if err != nil {
		return nil, err
	}
	// Build on the right input.
	build := make(map[uint64][]storage.Row, len(right.Rows))
	for _, row := range right.Rows {
		h, ok := hashKeys(row, rIdx)
		if !ok {
			continue // NULL keys never match
		}
		build[h] = append(build[h], row)
	}
	out := newOutput(n, left, right)
	rWidth := right.Schema.Len()
	for _, lrow := range left.Rows {
		matched := false
		if h, ok := hashKeys(lrow, lIdx); ok {
			for _, rrow := range build[h] {
				if keysEqual(lrow, rrow, lIdx, rIdx) {
					matched = true
					nr := make(storage.Row, 0, len(lrow)+rWidth)
					nr = append(nr, lrow...)
					nr = append(nr, rrow...)
					out.MustAppend(nr)
				}
			}
		}
		if !matched && n.JoinType == logical.JoinLeft {
			nr := make(storage.Row, 0, len(lrow)+rWidth)
			nr = append(nr, lrow...)
			for i := 0; i < rWidth; i++ {
				nr = append(nr, storage.Null)
			}
			out.MustAppend(nr)
		}
	}
	return out, nil
}

// hashKeys folds the key columns into one running FNV-64a state via
// Value.HashInto — no per-row string formatting or allocations. Rows with a
// NULL key return false: NULL keys never match.
func hashKeys(row storage.Row, idx []int) (uint64, bool) {
	h := storage.HashSeed
	for _, i := range idx {
		if row[i].IsNull() {
			return 0, false
		}
		h = row[i].HashInto(h)
	}
	return h, true
}

func runDistinct(n *logical.Node, in *storage.Table) (*storage.Table, error) {
	out := newOutput(n, in)
	seen := make(map[string]bool, len(in.Rows))
	var keyBuf []byte
	for _, row := range in.Rows {
		keyBuf = keyBuf[:0]
		for _, v := range row {
			keyBuf = appendTaggedKey(keyBuf, v)
			keyBuf = append(keyBuf, 0)
		}
		if !seen[string(keyBuf)] {
			seen[string(keyBuf)] = true
			out.MustAppend(row)
		}
	}
	return out, nil
}

func runSort(n *logical.Node, in *storage.Table) (*storage.Table, error) {
	keys := make([]expr.Compiled, len(n.SortKeys))
	for i, k := range n.SortKeys {
		c, err := expr.Compile(k.Expr, in.Schema)
		if err != nil {
			return nil, err
		}
		keys[i] = c
	}
	out := newOutput(n, in)
	out.Rows = make([]storage.Row, len(in.Rows))
	copy(out.Rows, in.Rows)
	sort.SliceStable(out.Rows, func(i, j int) bool {
		for k, key := range keys {
			c := storage.Compare(key(out.Rows[i]), key(out.Rows[j]))
			if n.SortKeys[k].Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		// Full-row tie-break: equal-key orderings must not depend on how
		// rows happened to arrive, or they would drift between engines.
		// Fully identical rows fall through to stable input order.
		return compareRowsFull(out.Rows[i], out.Rows[j]) < 0
	})
	// Rows were copied, not appended; recompute the byte accounting.
	rebuilt := newOutput(n, in)
	for _, r := range out.Rows {
		rebuilt.MustAppend(r)
	}
	return rebuilt, nil
}

func runAggregate(n *logical.Node, in *storage.Table) (*storage.Table, error) {
	groupEvals := make([]expr.Compiled, len(n.GroupBy))
	for i, g := range n.GroupBy {
		c, err := expr.Compile(g.Expr, in.Schema)
		if err != nil {
			return nil, err
		}
		groupEvals[i] = c
	}
	argEvals, err := compileAggArgs(n, in.Schema)
	if err != nil {
		return nil, err
	}

	type group struct {
		key    storage.Row
		states []*aggState
	}
	groups := map[string]*group{}
	var order []string // deterministic output order: first-seen
	var keyBuf []byte

	for _, row := range in.Rows {
		keyBuf = keyBuf[:0]
		keyVals := make(storage.Row, len(groupEvals))
		for i, g := range groupEvals {
			keyVals[i] = g(row)
			keyBuf = appendTaggedKey(keyBuf, keyVals[i])
			keyBuf = append(keyBuf, 0)
		}
		k := string(keyBuf)
		grp, ok := groups[k]
		if !ok {
			grp = &group{key: keyVals, states: newAggStates(n.Aggs)}
			groups[k] = grp
			order = append(order, k)
		}
		accumulateRow(n.Aggs, grp.states, argEvals, row)
	}

	out := newOutput(n, in)
	if len(order) == 0 && len(n.GroupBy) == 0 {
		return emptyGlobalAggRow(n, out), nil
	}
	for _, k := range order {
		grp := groups[k]
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
