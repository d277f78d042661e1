// Package exec implements the physical operators shared by both stores:
// SerDe extraction over raw JSON logs, filter, project, hash join, hash
// aggregation, distinct, sort, and limit. Both stores run whole plans
// through RunPlan (plan.go): hv keeps the tables of its job boundaries, dw
// keeps the root's only. Both produce real result tables — simulated time
// is layered on top by each store's cost model, not here.
package exec

import (
	"context"
	"encoding/json"
	"fmt"
	"runtime/debug"
	"time"

	"miso/internal/faults"
	"miso/internal/govern"
	"miso/internal/logical"
	"miso/internal/storage"
)

// Env resolves plan leaves to stored data and carries the per-query
// execution settings.
type Env struct {
	// ReadLog returns the raw log for a Scan leaf.
	ReadLog func(name string) (*storage.LogFile, error)
	// ReadView returns the materialized table for a ViewScan leaf.
	ReadView func(name string) (*storage.Table, error)
	// Workers bounds the morsel worker pool: 0 means GOMAXPROCS (the
	// default), n > 0 means n workers. Outputs are byte-identical across
	// every setting.
	Workers int
	// MorselRows overrides the fixed morsel size (DefaultMorselRows when
	// zero). Morsel boundaries affect scheduling only, never results.
	MorselRows int
	// Stats, when non-nil, accumulates per-operator wall-clock timings
	// across every node this Env runs.
	Stats *Stats
	// Ctx, when non-nil, is the query's cancellation context. Morsel
	// workers check it at every morsel claim and merge loops poll it
	// periodically, so a canceled query releases its workers within a
	// bounded amount of residual work. Nil disables the checks.
	Ctx context.Context
	// Mem, when non-nil, is the query's memory reservation ledger:
	// operators charge it as extract buffers, hash partitions, and sort
	// keys grow, and a reservation over the limit aborts the query with
	// an error wrapping govern.ErrMemLimit. Nil disables accounting.
	Mem *govern.Ledger
	// Inj, when non-nil, is the exec-plane fault injector (worker panics,
	// memory pressure, slow-morsel stragglers). It must be a separate
	// injector from the store-level one so concurrent morsel draws never
	// perturb the serialized stage/transfer sequence (see
	// faults.Profile.ExecOnly). Nil disables injection.
	Inj *faults.Injector
}

// RunNode executes a single operator given its children's outputs. Extract
// and ViewScan resolve their data through env and ignore inputs.
//
// Governance applies at the node boundary: a canceled Env.Ctx fails the
// node before work starts, and a panic anywhere in the operator —
// including code that runs inline on the calling goroutine — is converted
// to a typed govern.ErrInternal carrying the operator name, so one bad
// node cannot kill the process or other in-flight queries.
func RunNode(n *logical.Node, env *Env, inputs []*storage.Table) (*storage.Table, error) {
	// The stages of a fused pass meter themselves.
	if env.Stats == nil || fusedKind(n.Kind) {
		return runNodeSafe(n, env, inputs)
	}
	start := time.Now()
	t, err := runNodeSafe(n, env, inputs)
	rows := 0
	if t != nil {
		rows = len(t.Rows)
	}
	env.Stats.record(n.Kind, rows, time.Since(start))
	return t, err
}

func runNodeSafe(n *logical.Node, env *Env, inputs []*storage.Table) (t *storage.Table, err error) {
	if cerr := env.cancelErr(); cerr != nil {
		return nil, cerr
	}
	defer func() {
		if v := recover(); v != nil {
			t = nil
			err = govern.NewPanicError(n.Kind.String(), v, debug.Stack())
		}
	}()
	return runNode(n, env, inputs)
}

func runNode(n *logical.Node, env *Env, inputs []*storage.Table) (*storage.Table, error) {
	switch n.Kind {
	case logical.KindScan:
		return nil, fmt.Errorf("exec: bare Scan cannot execute; it is consumed by Extract")
	case logical.KindExtract:
		var bufs scanBufs
		defer bufs.release()
		src, err := newScanSource(n, env, &bufs)
		if err != nil {
			return nil, err
		}
		return runFusedChain(nil, env, src, nil)
	case logical.KindViewScan:
		if env.ReadView == nil {
			return nil, fmt.Errorf("exec: no view resolver for view %q", n.ViewName)
		}
		return env.ReadView(n.ViewName)
	case logical.KindFilter, logical.KindProject, logical.KindAggregate:
		return runFusedChain([]*logical.Node{n}, env, fusedSource{in: inputs[0]}, nil)
	case logical.KindJoin:
		return runJoinMorsel(n, env, inputs[0], inputs[1])
	case logical.KindDistinct:
		return runDistinctMorsel(n, env, inputs[0])
	case logical.KindSort:
		return runSortMorsel(n, env, inputs[0])
	case logical.KindLimit:
		return runLimit(n, inputs[0]), nil
	default:
		return nil, fmt.Errorf("exec: unknown node kind %v", n.Kind)
	}
}

func newOutput(n *logical.Node, inputs ...*storage.Table) *storage.Table {
	t := storage.NewTable(n.Signature(), n.Schema())
	for _, in := range inputs {
		if in != nil && in.ScaleFactor > t.ScaleFactor {
			t.ScaleFactor = in.ScaleFactor
		}
	}
	return t
}

func coerceJSON(v any, want storage.Kind) storage.Value {
	switch x := v.(type) {
	case nil:
		return storage.Null
	case json.Number:
		switch want {
		case storage.KindInt:
			if i, err := x.Int64(); err == nil {
				return storage.IntValue(i)
			}
			if f, err := x.Float64(); err == nil {
				return storage.IntValue(int64(f))
			}
		case storage.KindFloat:
			if f, err := x.Float64(); err == nil {
				return storage.FloatValue(f)
			}
		case storage.KindString:
			return storage.StringValue(x.String())
		}
		return storage.Null
	case string:
		switch want {
		case storage.KindString:
			return storage.StringValue(x)
		case storage.KindInt:
			v := storage.StringValue(x)
			if i, ok := v.AsInt(); ok {
				return storage.IntValue(i)
			}
		case storage.KindFloat:
			v := storage.StringValue(x)
			if f, ok := v.AsFloat(); ok {
				return storage.FloatValue(f)
			}
		}
		return storage.Null
	case bool:
		if want == storage.KindBool {
			return storage.BoolValue(x)
		}
		return storage.Null
	default:
		return storage.Null
	}
}

func joinKeyIndexes(n *logical.Node, left, right *storage.Table) (lIdx, rIdx []int, err error) {
	lIdx = make([]int, len(n.LeftKeys))
	for i, k := range n.LeftKeys {
		lIdx[i] = left.Schema.Index(k)
		if lIdx[i] < 0 {
			return nil, nil, fmt.Errorf("exec: left join key %q missing from %s", k, left.Schema)
		}
	}
	rIdx = make([]int, len(n.RightKeys))
	for i, k := range n.RightKeys {
		rIdx[i] = right.Schema.Index(k)
		if rIdx[i] < 0 {
			return nil, nil, fmt.Errorf("exec: right join key %q missing from %s", k, right.Schema)
		}
	}
	return lIdx, rIdx, nil
}

func keysEqual(l, r storage.Row, lIdx, rIdx []int) bool {
	for i := range lIdx {
		if !storage.Equal(l[lIdx[i]], r[rIdx[i]]) {
			return false
		}
	}
	return true
}

// compareRowsFull orders two rows of the same schema column-wise; it is the
// sort tie-break shared by both engines.
func compareRowsFull(a, b storage.Row) int {
	for i := range a {
		if c := storage.Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	return 0
}

func runLimit(n *logical.Node, in *storage.Table) *storage.Table {
	out := newOutput(n, in)
	limit := n.LimitN
	if limit > len(in.Rows) {
		limit = len(in.Rows)
	}
	for _, row := range in.Rows[:limit] {
		out.MustAppend(row)
	}
	return out
}
