package storage

import "sync/atomic"

// LogFile is a raw, schemaless log stored in the big data store as JSON
// lines (the paper's HDFS flat files). Queries are posed directly over logs;
// the schema of interest is declared in the query and extracted at scan time
// by the SerDe (see the hv package's extract stage).
//
// FieldTypes records the types of the fields a SerDe may extract. It stands
// in for the per-query schema declaration: the query names the fields and
// the registry supplies their types.
//
// Lines is read and appended by one writer at a time (the multistore
// system's mutex); the sizes (NumLines, RawBytes, LogicalBytes) may be read
// from any goroutine beside an AppendLine, which is how a query estimates
// base sizes before it takes that mutex.
type LogFile struct {
	Name        string
	Lines       []string
	FieldTypes  *Schema
	ScaleFactor float64

	// Generation is always 0: a registered log only grows. It is read only
	// by the end-to-end benchmark's mqo.VersionSource (bench/probe.go).
	Generation int

	lines, bytes atomic.Int64
}

// NewLogFile creates an empty log with the given extractable field registry.
func NewLogFile(name string, fields *Schema) *LogFile {
	return &LogFile{Name: name, FieldTypes: fields}
}

// AppendLine adds one raw JSON record.
func (l *LogFile) AppendLine(line string) {
	l.Lines = append(l.Lines, line)
	l.bytes.Add(int64(len(line)) + 1) // +1 for the newline
	l.lines.Add(1)
}

// NumLines returns the record count.
func (l *LogFile) NumLines() int { return int(l.lines.Load()) }

// RawBytes returns the measured in-memory size of the log.
func (l *LogFile) RawBytes() int64 { return l.bytes.Load() }

// LogicalBytes returns the scaled size used by the cost model.
func (l *LogFile) LogicalBytes() int64 {
	sf := l.ScaleFactor
	if sf <= 0 {
		sf = 1
	}
	return int64(float64(l.RawBytes()) * sf)
}
