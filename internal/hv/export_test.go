package hv

import (
	"context"
	"fmt"

	"miso/internal/exec"
	"miso/internal/logical"
	"miso/internal/storage"
)

// BeginExecuteNodeByNode is the driver BeginExecute had before
// exec.RunPlan: every node run alone through exec.RunNode, every
// intermediate built as a table and its statistics read off that table. It
// is the oracle the fused path's statistics, costs and captured views are
// compared against.
func (s *Store) BeginExecuteNodeByNode(ctx context.Context, plan *logical.Node) (*Pending, error) {
	env := s.Env()
	env.Ctx = ctx
	mat := MaterializedNodes(plan)
	res := &exec.PlanResult{
		Tables: map[*logical.Node]*storage.Table{},
		Stats:  map[*logical.Node]exec.NodeStat{},
	}
	var run func(n *logical.Node) (*storage.Table, error)
	run = func(n *logical.Node) (*storage.Table, error) {
		var inputs []*storage.Table
		switch n.Kind {
		case logical.KindExtract, logical.KindViewScan:
		default:
			for _, c := range n.Children {
				t, err := run(c)
				if err != nil {
					return nil, err
				}
				inputs = append(inputs, t)
			}
		}
		t, err := exec.RunNode(n, env, inputs)
		if err != nil {
			return nil, err
		}
		res.Stats[n] = exec.NodeStat{Rows: int64(t.NumRows()), RawBytes: t.RawBytes(), ScaleFactor: t.ScaleFactor}
		if mat[n] {
			res.Tables[n] = t
		}
		return t, nil
	}
	root, err := run(plan)
	if err != nil {
		return nil, fmt.Errorf("hv: executing plan node by node: %w", err)
	}
	res.Root = root
	return &Pending{s: s, run: res, mat: mat}, nil
}
