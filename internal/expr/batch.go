package expr

import (
	"fmt"

	"miso/internal/storage"
)

// Batch is a window of rows plus lazily-transposed column vectors, the unit
// the vectorized evaluators operate on. The executor resets one Batch per
// morsel; columns are transposed from the rows only when an evaluator first
// touches them, so expressions that read two of ten columns pay for two —
// and a column no evaluator touches never gets a vector at all.
//
// Like Compiled, a Batch and every BatchCompiled bound to it are
// single-goroutine: evaluators reuse closure-owned scratch vectors between
// calls, so concurrent executors must compile one evaluator chain (and
// allocate one Batch) per worker. Evaluators compiled from the same
// expression and schema are interchangeable — they compute identical
// values.
type Batch struct {
	schema *storage.Schema
	rows   []storage.Row
	cols   []*storage.Vector // nil until an evaluator first touches the column
	built  []bool
}

// NewBatch returns a Batch for rows of the given schema.
func NewBatch(schema *storage.Schema) *Batch {
	n := len(schema.Columns)
	return &Batch{schema: schema, cols: make([]*storage.Vector, n), built: make([]bool, n)}
}

// Reset points the batch at a new window of rows, invalidating all column
// vectors (their capacity is kept). Vectors previously returned by
// evaluators bound to this batch are invalid after Reset.
func (b *Batch) Reset(rows []storage.Row) {
	b.rows = rows
	for i := range b.built {
		b.built[i] = false
	}
}

// Len returns the number of rows in the window.
func (b *Batch) Len() int { return len(b.rows) }

// Col returns column i as a vector, transposing it from the rows on first
// access since the last Reset. The vector is owned by the batch; callers
// must not modify it.
func (b *Batch) Col(i int) *storage.Vector {
	if !b.built[i] {
		if b.cols[i] == nil {
			b.cols[i] = &storage.Vector{}
		}
		b.cols[i].FromRows(b.rows, i, b.schema.Columns[i].Type)
		b.built[i] = true
	}
	return b.cols[i]
}

// BatchCompiled evaluates an expression over a whole batch. With sel == nil
// it evaluates every row and returns a vector of Len elements; with a
// selection vector it evaluates only rows[sel[j]] and returns a dense
// vector of len(sel) elements in selection order. The returned vector is
// scratch owned by the evaluator (or by the batch, for bare column
// references): it is valid until the next call or the next Batch.Reset, and
// must not be modified.
//
// BatchCompiled inherits Compiled's single-goroutine contract: compile one
// evaluator per worker.
type BatchCompiled func(b *Batch, sel []int32) *storage.Vector

// CompileBatch binds e to the schema and returns a batch evaluator that
// computes, for every row, exactly the value Compile's row evaluator would.
// Compile is the one definition of the language; CompileBatch accelerates
// the shapes the benchmark's traffic compiles and hands every other node to
// the row evaluator, batched over the selection (scalarFallback):
//
//   - a column reference (the batch's vector, gathered under a selection);
//   - <subtree> <cmp> <literal constant>, the constant on the right;
//   - AND / OR with no function call on either side (the row evaluator
//     short-circuits, so a call must not run unconditionally);
//   - IN / NOT IN over literal constants.
//
// A kernel's operands compile recursively, so a fallback subtree can sit
// under a kernel and the other way round. A new kernel lands together with
// a BENCHMARK.json workload whose traffic compiles its shape.
func CompileBatch(e Expr, schema *storage.Schema) (BatchCompiled, error) {
	switch v := e.(type) {
	case *ColRef:
		idx := schema.Index(v.Name)
		if idx < 0 {
			return nil, fmt.Errorf("expr: unknown column %q in schema %s", v.Name, schema)
		}
		kind := schema.Columns[idx].Type
		out := &storage.Vector{}
		return func(b *Batch, sel []int32) *storage.Vector {
			if sel == nil {
				return b.Col(idx)
			}
			if b.built[idx] {
				out.Gather(b.cols[idx], sel)
				return out
			}
			out.FromRowsSel(b.rows, idx, kind, sel)
			return out
		}, nil
	case *BinOp:
		switch v.Op {
		case "AND", "OR":
			if containsFunc(v.L) || containsFunc(v.R) {
				break
			}
			l, err := CompileBatch(v.L, schema)
			if err != nil {
				return nil, err
			}
			r, err := CompileBatch(v.R, schema)
			if err != nil {
				return nil, err
			}
			return logicKernel(v.Op, l, r), nil
		case "=", "!=", "<", "<=", ">", ">=":
			c, ok := v.R.(*Const)
			if !ok {
				break
			}
			l, err := CompileBatch(v.L, schema)
			if err != nil {
				return nil, err
			}
			return compareConstKernel(v.Op, l, c.Val), nil
		}
	case *In:
		items, ok := constValues(v.Items)
		if !ok {
			break
		}
		in, err := CompileBatch(v.E, schema)
		if err != nil {
			return nil, err
		}
		return inConstKernel(in, items, v.Neg), nil
	}
	return scalarFallback(e, schema)
}

// constValues returns the items' values when every item is a literal.
func constValues(items []Expr) ([]storage.Value, bool) {
	vals := make([]storage.Value, len(items))
	for i, it := range items {
		c, ok := it.(*Const)
		if !ok {
			return nil, false
		}
		vals[i] = c.Val
	}
	return vals, true
}

// RefineSelection compacts sel to the entries whose corresponding element
// of v (dense over sel, as produced by evaluating a predicate with sel) is
// non-NULL and true. It writes in place and returns the shortened slice.
func RefineSelection(sel []int32, v *storage.Vector) []int32 {
	out := sel[:0]
	for j := range sel {
		if null, t := truthAt(v, j); !null && t {
			out = append(out, sel[j])
		}
	}
	return out
}

// containsFunc reports whether e contains a function call (builtin or UDF)
// anywhere in its tree.
func containsFunc(e Expr) bool {
	found := false
	e.Walk(func(x Expr) {
		if _, ok := x.(*Func); ok {
			found = true
		}
	})
	return found
}

// truthAt returns (isNull, truthy) for element i under Value.Bool
// semantics, without materializing a Value on typed vectors.
func truthAt(v *storage.Vector, i int) (bool, bool) {
	if v.Generic() {
		val := v.Vals[i]
		return val.IsNull(), val.Bool()
	}
	if v.NullAt(i) {
		return true, false
	}
	switch v.Kind() {
	case storage.KindInt, storage.KindBool:
		return false, v.Ints[i] != 0
	case storage.KindFloat:
		return false, v.Floats[i] != 0
	case storage.KindString:
		return false, v.Strs[i] != ""
	default:
		return true, false
	}
}

func isNumericKind(k storage.Kind) bool {
	switch k {
	case storage.KindInt, storage.KindFloat, storage.KindBool:
		return true
	default:
		return false
	}
}

func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpHolds(op string, c int) bool {
	switch op {
	case "=":
		return c == 0
	case "!=":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	default: // ">="
		return c >= 0
	}
}

// fallbackHook, when a test sets it, is told every node CompileBatch hands
// to the row evaluator.
var fallbackHook func(Expr)

// scalarFallback wraps the row evaluator for every node CompileBatch has no
// kernel for. The result vector declares the statically inferred kind and
// degrades to generic storage if runtime values disagree, so values
// round-trip exactly either way.
func scalarFallback(e Expr, schema *storage.Schema) (BatchCompiled, error) {
	if fallbackHook != nil {
		fallbackHook(e)
	}
	row, err := Compile(e, schema)
	if err != nil {
		return nil, err
	}
	kind, kerr := TypeOf(e, schema)
	if kerr != nil {
		kind = storage.KindNull
	}
	out := &storage.Vector{}
	return func(b *Batch, sel []int32) *storage.Vector {
		out.Reset(kind)
		if sel == nil {
			for _, r := range b.rows {
				out.Append(row(r))
			}
		} else {
			for _, i := range sel {
				out.Append(row(b.rows[i]))
			}
		}
		return out
	}, nil
}

// logicKernel evaluates AND/OR with the row evaluator's three-valued
// semantics. Both sides are evaluated for the whole batch — safe because
// CompileBatch excluded function calls and all remaining node kinds are pure.
func logicKernel(op string, l, r BatchCompiled) BatchCompiled {
	isAnd := op == "AND"
	out := &storage.Vector{}
	return func(b *Batch, sel []int32) *storage.Vector {
		lv := l(b, sel)
		rv := r(b, sel)
		n := lv.Len()
		out.Reset(storage.KindBool)
		for i := 0; i < n; i++ {
			lnull, lt := truthAt(lv, i)
			rnull, rt := truthAt(rv, i)
			if isAnd {
				switch {
				case (!lnull && !lt) || (!rnull && !rt):
					out.AppendBool(false)
				case lnull || rnull:
					out.AppendNull()
				default:
					out.AppendBool(true)
				}
			} else {
				switch {
				case (!lnull && lt) || (!rnull && rt):
					out.AppendBool(true)
				case lnull || rnull:
					out.AppendNull()
				default:
					out.AppendBool(false)
				}
			}
		}
		return out
	}
}

// inConstKernel evaluates IN / NOT IN against a list of constants: NULL for
// a NULL operand, otherwise whether any item is Equal to it.
func inConstKernel(in BatchCompiled, items []storage.Value, neg bool) BatchCompiled {
	out := &storage.Vector{}
	return func(b *Batch, sel []int32) *storage.Vector {
		x := in(b, sel)
		n := x.Len()
		out.Reset(storage.KindBool)
		for i := 0; i < n; i++ {
			xv := x.Value(i)
			if xv.IsNull() {
				out.AppendNull()
				continue
			}
			found := false
			for _, cv := range items {
				if storage.Equal(xv, cv) {
					found = true
					break
				}
			}
			out.AppendBool(found != neg)
		}
		return out
	}
}

// compareConstKernel compares every element of child with the constant cv:
// typed numeric and string vectors on their native slices, generic or
// mixed-kind ones through storage.Compare. NULL on either side gives NULL.
func compareConstKernel(op string, child BatchCompiled, cv storage.Value) BatchCompiled {
	out := &storage.Vector{}
	return func(b *Batch, sel []int32) *storage.Vector {
		x := child(b, sel)
		n := x.Len()
		out.Reset(storage.KindBool)
		if cv.IsNull() {
			for i := 0; i < n; i++ {
				out.AppendNull()
			}
			return out
		}
		if !x.Generic() {
			switch {
			case isNumericKind(x.Kind()) && isNumericKind(cv.Kind):
				cf, _ := cv.AsFloat()
				if x.Kind() == storage.KindFloat {
					for i, xf := range x.Floats {
						if x.NullAt(i) {
							out.AppendNull()
							continue
						}
						out.AppendBool(cmpHolds(op, cmpFloat(xf, cf)))
					}
				} else {
					for i, xi := range x.Ints {
						if x.NullAt(i) {
							out.AppendNull()
							continue
						}
						out.AppendBool(cmpHolds(op, cmpFloat(float64(xi), cf)))
					}
				}
				return out
			case x.Kind() == storage.KindString && cv.Kind == storage.KindString:
				cs := cv.S
				for i, s := range x.Strs {
					if x.NullAt(i) {
						out.AppendNull()
						continue
					}
					c := 0
					switch {
					case s < cs:
						c = -1
					case s > cs:
						c = 1
					}
					out.AppendBool(cmpHolds(op, c))
				}
				return out
			}
		}
		for i := 0; i < n; i++ {
			xv := x.Value(i)
			if xv.IsNull() {
				out.AppendNull()
				continue
			}
			out.AppendBool(cmpHolds(op, storage.Compare(xv, cv)))
		}
		return out
	}
}
