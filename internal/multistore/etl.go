package multistore

import (
	"context"
	"fmt"
	"sort"

	"miso/internal/expr"
	"miso/internal/logical"
	"miso/internal/storage"
	"miso/internal/transfer"
	"miso/internal/views"
)

// runETL performs DW-ONLY's up-front Extract-Transform-Load: for every log
// touched by the provided workload it extracts (in HV, the ETL engine) the
// union of fields and hoisted UDF columns the workload needs, transfers and
// loads the result into DW permanent space. All of it is charged to the ETL
// component of TTI. UDFs that DW cannot execute are applied during this ETL
// pass, as in the paper. A log whose ETL'd view DW still holds is skipped,
// so after an append dropped a log's view only that log is loaded again.
func (s *System) runETL() error {
	if len(s.future) == 0 {
		return fmt.Errorf("multistore: DW-ONLY requires ProvideFutureWorkload to scope the ETL")
	}

	type logNeed struct {
		plain map[string]logical.ExtractField // by OutName
		udf   map[string]logical.ExtractField
	}
	needs := map[string]*logNeed{}
	for _, e := range s.future {
		e.Plan.Walk(func(n *logical.Node) {
			if n.Kind != logical.KindExtract {
				return
			}
			logName := n.Children[0].LogName
			need, ok := needs[logName]
			if !ok {
				need = &logNeed{
					plain: map[string]logical.ExtractField{},
					udf:   map[string]logical.ExtractField{},
				}
				needs[logName] = need
			}
			for _, f := range n.Fields {
				if f.UDF != nil {
					need.udf[f.OutName] = f
				} else {
					need.plain[f.OutName] = f
				}
			}
		})
	}

	logNames := make([]string, 0, len(needs))
	for n := range needs {
		logNames = append(logNames, n)
	}
	sort.Strings(logNames)

	for _, logName := range logNames {
		need := needs[logName]
		node, err := buildETLExtract(logName, need.plain, need.udf)
		if err != nil {
			return err
		}
		if _, ok := s.dw.Views.ByID(node.ID()); ok {
			continue
		}
		res, err := s.hv.ExecuteContext(context.Background(), node, 0)
		if err != nil {
			return fmt.Errorf("multistore: ETL of %q: %w", logName, err)
		}
		s.metrics.ETL += res.Seconds
		s.metrics.Recovery += res.RecoverySeconds
		s.metrics.Retries += res.Retries
		// Each UDF is applied as its own transformation pass over the
		// extracted data during ETL (the paper's Hive-based ETL runs
		// user code as separate jobs), costing a fraction of the base
		// extraction per UDF column.
		s.metrics.ETL += res.Seconds * 0.5 * float64(len(need.udf))
		bytes := res.Table.LogicalBytes()
		// The bulk load into DW permanent space runs through the fault-
		// injected pipeline; ETL is one-time and has nothing to degrade
		// to, so an exhausted load fails the ETL with a typed error.
		productive, recovery, retries, mvErr := s.move(context.Background(), bytes, transfer.KindPermanent)
		s.metrics.Retries += retries
		s.metrics.Recovery += recovery
		if mvErr != nil {
			// Two additions, in this order: the sums recorded at this site
			// were made that way.
			s.metrics.Recovery += productive
			return fmt.Errorf("multistore: ETL load of %q: %w", logName, mvErr)
		}
		s.metrics.ETL += productive
		s.dw.Views.Add(views.New(node, res.Table, 0))
	}
	// The ETL engine's by-products are not retained: DW-ONLY serves
	// queries exclusively from the warehouse.
	s.hv.Views.Reset()
	return nil
}

// buildETLExtract assembles Scan -> Extract with the given plain fields
// (sorted) and UDF fields (sorted), mirroring the builder's leaf layout so
// query leaves subsume against the ETL view.
func buildETLExtract(logName string, plain, udf map[string]logical.ExtractField) (*logical.Node, error) {
	scan := logical.NewNode(logical.Node{Kind: logical.KindScan, LogName: logName},
		storage.MustSchema(storage.Column{Name: "_raw", Type: storage.KindString}))
	ex := logical.Node{Kind: logical.KindExtract, Children: []*logical.Node{scan}}

	var cols []storage.Column
	for _, name := range sortedKeys(plain) {
		f := plain[name]
		ex.Fields = append(ex.Fields, f)
		cols = append(cols, storage.Column{Name: f.OutName, Type: f.Type})
	}
	for _, name := range sortedKeys(udf) {
		f := udf[name]
		// UDF inputs must be among the extracted plain fields.
		for _, c := range expr.Columns(f.UDF) {
			if _, ok := plain[c]; !ok {
				return nil, fmt.Errorf("multistore: ETL UDF column %q needs missing field %q", name, c)
			}
		}
		ex.Fields = append(ex.Fields, f)
		cols = append(cols, storage.Column{Name: f.OutName, Type: f.Type})
	}
	sch, err := storage.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	return logical.NewNode(ex, sch), nil
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
