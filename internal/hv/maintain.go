package hv

import (
	"slices"

	"miso/internal/exec"
	"miso/internal/logical"
	"miso/internal/stats"
	"miso/internal/storage"
	"miso/internal/views"
)

// MaintainAppend brings the store's views over log forward after lines were
// appended to it (log already holds them), the way Hive maintains a
// materialization over an insert-only source. A view is maintained when its
// definition is Filter and Project nodes over one Extract of the log: its
// definition runs over the new lines alone, and the view is replaced by one
// whose table is its old rows followed by those, with the checksum extended
// over the new rows, its sequence stamps kept and its size recorded with
// the estimator. Such a table is exactly what the definition yields over
// the whole log, because every row it holds depends on one line. Every
// other view over the log is dropped, and so is a maintained view that
// would take the store's views past budget bytes (views are brought
// forward in name order). It returns how many views it dropped and the
// simulated seconds of the maintenance.
//
// The maintenance is one HV job, one shared scan of the new lines as in
// Hive's multi-insert: a job's startup, the lines at SerDe rate and the
// added bytes at write rate, and none when nothing is maintained. It draws
// nothing from either injector. A view whose delta fails to execute is
// dropped.
func (s *Store) MaintainAppend(log *storage.LogFile, lines []string, budget int64) (dropped int, seconds float64) {
	over := func(v *views.View) bool { return slices.Contains(v.BaseLogs(), log.Name) }
	// total is what HV holds besides the views over the log, then besides
	// the ones not brought forward.
	total := s.Views.TotalBytes()
	var keep []*views.View
	for _, v := range s.Views.Members() {
		if !over(v) {
			continue
		}
		total -= v.SizeBytes()
		if v.Table != nil && rowWise(v.Def, log.Name) {
			keep = append(keep, v)
		}
	}
	delta := storage.NewLogFile(log.Name, log.FieldTypes)
	delta.ScaleFactor = log.ScaleFactor
	for _, l := range lines {
		delta.AppendLine(l)
	}
	env := s.Env()
	env.Inj = nil
	env.ReadLog = func(name string) (*storage.LogFile, error) {
		if name == log.Name {
			return delta, nil
		}
		return s.cat.Log(name)
	}
	var (
		next  []*views.View
		added int64
	)
	for _, v := range keep {
		rows, err := exec.Run(v.Def, env)
		if err != nil {
			continue
		}
		nv := v.Extend(rows)
		if total+nv.SizeBytes() > budget {
			continue
		}
		total += nv.SizeBytes()
		added += nv.SizeBytes() - v.SizeBytes()
		next = append(next, nv)
	}
	if len(next) > 0 {
		seconds = jobSeconds(0, delta.LogicalBytes(), added)
	}
	dropped = s.Views.RemoveIf(func(v *views.View) bool {
		return over(v) && !slices.ContainsFunc(next, func(nv *views.View) bool { return nv.Name == v.Name })
	})
	for _, nv := range next {
		s.est.RecordView(nv.Name, stats.Stat{Rows: int64(nv.Table.NumRows()), Bytes: nv.Table.LogicalBytes()})
		s.Views.Add(nv)
	}
	return dropped, seconds
}

// rowWise reports whether def is Filter and Project nodes over one Extract
// of the named log: a definition each of whose rows comes from one line.
func rowWise(def *logical.Node, log string) bool {
	n := def
	for n.Kind == logical.KindFilter || n.Kind == logical.KindProject {
		n = n.Children[0]
	}
	return n.Kind == logical.KindExtract && n.Children[0].LogName == log
}
