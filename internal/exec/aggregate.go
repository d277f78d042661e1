package exec

import (
	"fmt"

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
