package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

func readResult(path string) (*result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// verdict judges one metric of one workload. A side whose own rounds spread
// wider than the bound cannot resolve a difference of that size.
func verdict(old, new value, better string, bound float64) string {
	for _, v := range []value{old, new} {
		if v.Spread != nil && v.Spread[1]-v.Spread[0] > bound*v.Value {
			return "unresolved"
		}
	}
	gain := new.Value/old.Value - 1
	if better == "lower" {
		gain = -gain
	}
	switch {
	case gain > bound:
		return "better"
	case gain < -bound:
		return "worse"
	default:
		return "same"
	}
}

// compareFiles prints, one row per workload, each end-to-end metric's new
// value over its old one with a verdict under the metric's bound, and fails
// on any "worse" and on any rise in the share of failed queries.
func compareFiles(specPath string, args []string, out io.Writer) error {
	if len(args) != 2 {
		return errors.New("-compare wants two files: old.json new.json")
	}
	spec, err := readBenchmarkFile(specPath)
	if err != nil {
		return err
	}
	if err := spec.checkAgainst(); err != nil {
		return err
	}
	old, err := readResult(args[0])
	if err != nil {
		return err
	}
	new, err := readResult(args[1])
	if err != nil {
		return err
	}
	for _, r := range []*result{old, new} {
		for name, wr := range r.Workloads {
			if _, err := workloadByName(name); err != nil {
				return err
			}
			for m := range wr.EndToEnd {
				if !knownMetric(endToEnd, m) {
					return fmt.Errorf("%s: unknown end-to-end metric %q", name, m)
				}
			}
		}
	}

	var worse []string
	for _, w := range workloads {
		o, n := old.Workloads[w.name], new.Workloads[w.name]
		if o == nil || n == nil {
			continue
		}
		var cells []string
		for _, m := range spec.EndToEnd {
			ov, ok1 := o.EndToEnd[m.Name]
			nv, ok2 := n.EndToEnd[m.Name]
			if !ok1 || !ok2 {
				continue
			}
			v := verdict(ov, nv, m.Better, m.Bound)
			cells = append(cells, fmt.Sprintf("%s %.4g/%.4g=%.3f %s", m.Name, nv.Value, ov.Value, nv.Value/ov.Value, v))
			if v == "worse" {
				worse = append(worse, w.name+" "+m.Name)
			}
		}
		of, nf := float64(o.Failed)/float64(o.Attempted), float64(n.Failed)/float64(n.Attempted)
		cells = append(cells, fmt.Sprintf("failed %d/%d -> %d/%d", o.Failed, o.Attempted, n.Failed, n.Attempted))
		if nf > of {
			worse = append(worse, w.name+" failed")
		}
		fmt.Fprintf(out, "%s: %s\n", w.name, strings.Join(cells, "; "))
	}
	if len(worse) > 0 {
		return fmt.Errorf("worse: %s", strings.Join(worse, ", "))
	}
	return nil
}

func knownMetric(defs []metric, name string) bool {
	for _, m := range defs {
		if m.name == name {
			return true
		}
	}
	return false
}
