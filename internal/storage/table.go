package storage

import (
	"fmt"
)

// Row is one tuple. Its length always matches its table's schema.
type Row []Value

// Clone returns a copy of the row.
func (r Row) Clone() Row {
	c := make(Row, len(r))
	copy(c, r)
	return c
}

// EncodedSize returns the estimated serialized size of the row.
func (r Row) EncodedSize() int64 {
	var n int64
	for _, v := range r {
		n += v.EncodedSize()
	}
	return n
}

// Table is an in-memory relation: a schema plus rows. Tables are the unit of
// materialization for views, transfers, and loads. ScaleFactor scales the
// measured in-memory byte size up to the "logical" size used by the cost
// model and the storage budgets, so that an MB-scale test dataset stands in
// for the paper's TB-scale logs.
//
// Tables are write-once: built by an operator or loader, then never
// mutated. That immutability is what lets snapshot accessors (for
// example multistore.System.Reports), checkpoints and WAL payloads share
// Table pointers across goroutines without copying or locking.
type Table struct {
	Name        string
	Schema      *Schema
	Rows        []Row
	ScaleFactor float64

	bytes int64 // accumulated EncodedSize of Rows
}

// NewTable creates an empty table with the given schema. A ScaleFactor of 0
// is treated as 1 by LogicalBytes.
func NewTable(name string, schema *Schema) *Table {
	return &Table{Name: name, Schema: schema}
}

// Append adds a row, which must match the schema arity.
func (t *Table) Append(r Row) error {
	if len(r) != t.Schema.Len() {
		return fmt.Errorf("storage: row arity %d does not match schema %s of table %q",
			len(r), t.Schema, t.Name)
	}
	t.Rows = append(t.Rows, r)
	t.bytes += r.EncodedSize()
	return nil
}

// MustAppend is Append that panics on arity mismatch; used by generators
// whose arity is statically correct.
func (t *Table) MustAppend(r Row) {
	if err := t.Append(r); err != nil {
		panic(err)
	}
}

// AppendBlock bulk-appends rows whose total encoded size the caller has
// already computed — typically during a parallel materialization phase
// whose memory reservation needed the same per-row size walk. Arity is
// still validated; the size walk is not repeated. Passing a size that is
// not the sum of the rows' EncodedSize corrupts RawBytes, so callers must
// hand over exactly the bytes they reserved for these rows.
func (t *Table) AppendBlock(rows []Row, encodedBytes int64) {
	want := t.Schema.Len()
	for _, r := range rows {
		if len(r) != want {
			panic(fmt.Sprintf("storage: row arity %d does not match schema %s of table %q",
				len(r), t.Schema, t.Name))
		}
	}
	t.Rows = append(t.Rows, rows...)
	t.bytes += encodedBytes
}

// Concat returns a new table holding t's rows followed by more's, under
// t's name, schema and scale factor. The rows themselves are shared and
// neither input is written, so a table a view, a checkpoint or a payload
// holds can be extended without being copied row by row; more must have
// t's arity.
func (t *Table) Concat(more *Table) *Table {
	c := &Table{Name: t.Name, Schema: t.Schema, ScaleFactor: t.ScaleFactor, bytes: t.bytes + more.bytes}
	c.Rows = append(append(make([]Row, 0, len(t.Rows)+len(more.Rows)), t.Rows...), more.Rows...)
	return c
}

// NumRows returns the row count.
func (t *Table) NumRows() int { return len(t.Rows) }

// RawBytes returns the measured in-memory serialized size.
func (t *Table) RawBytes() int64 { return t.bytes }

// LogicalBytes returns the scaled size used by the cost model: RawBytes
// multiplied by the table's ScaleFactor (default 1).
func (t *Table) LogicalBytes() int64 { return ScaleBytes(t.bytes, t.ScaleFactor) }

// ScaleBytes is the logical size of raw measured bytes under a table's
// scale factor (<= 0 counts as 1). Anything that reports a size for a table
// it did not build must go through it, so the truncation is the same.
func ScaleBytes(raw int64, scaleFactor float64) int64 {
	if scaleFactor <= 0 {
		scaleFactor = 1
	}
	return int64(float64(raw) * scaleFactor)
}

// AvgRowBytes returns the mean serialized row size, or 0 for empty tables.
func (t *Table) AvgRowBytes() int64 {
	if len(t.Rows) == 0 {
		return 0
	}
	return t.bytes / int64(len(t.Rows))
}

// Clone copies the table's rows so the copy's values can be written without
// touching the original; the schema is shared. Tables are write-once, so it
// is called only where a fault corrupts a copy (durability.CorruptTable).
func (t *Table) Clone() *Table {
	c := &Table{
		Name:        t.Name,
		Schema:      t.Schema,
		Rows:        make([]Row, len(t.Rows)),
		ScaleFactor: t.ScaleFactor,
		bytes:       t.bytes,
	}
	for i, r := range t.Rows {
		c.Rows[i] = r.Clone()
	}
	return c
}
