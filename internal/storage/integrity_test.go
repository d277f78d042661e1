package storage

import (
	"strings"
	"testing"
)

func checksumFixture(t *testing.T) *Table {
	t.Helper()
	sch, err := NewSchema(
		Column{Name: "id", Type: KindInt},
		Column{Name: "score", Type: KindFloat},
		Column{Name: "tag", Type: KindString},
	)
	if err != nil {
		t.Fatal(err)
	}
	tbl := NewTable("fixture", sch)
	tbl.MustAppend(Row{IntValue(1), FloatValue(0.5), StringValue("alpha")})
	tbl.MustAppend(Row{IntValue(2), FloatValue(1.5), StringValue("beta")})
	return tbl
}

func TestChecksumTableDetectsEveryFieldFlip(t *testing.T) {
	base := ChecksumTable(checksumFixture(t))
	if base != ChecksumTable(checksumFixture(t)) {
		t.Fatal("checksum not deterministic")
	}
	mutations := []func(*Table){
		func(tb *Table) { tb.Rows[0][0].I++ },
		func(tb *Table) { tb.Rows[1][1].F += 1 },
		func(tb *Table) { tb.Rows[0][2].S = "alphb" },
		func(tb *Table) { tb.Name = "other" },
		func(tb *Table) { tb.Rows[0], tb.Rows[1] = tb.Rows[1], tb.Rows[0] }, // order is content
	}
	for i, mutate := range mutations {
		tb := checksumFixture(t)
		mutate(tb)
		if ChecksumTable(tb) == base {
			t.Errorf("mutation %d invisible to checksum", i)
		}
	}
	if ChecksumTable(nil) != ChecksumTable(nil) {
		t.Error("nil checksum not stable")
	}
	if ChecksumTable(nil) == base {
		t.Error("nil table collides with fixture")
	}
}

func TestChecksumSeparatorsPreventSmearing(t *testing.T) {
	// "ab"+"c" and "a"+"bc" across adjacent string cells must differ.
	sch, err := NewSchema(
		Column{Name: "x", Type: KindString},
		Column{Name: "y", Type: KindString},
	)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(a, b string) *Table {
		tb := NewTable("t", sch)
		tb.MustAppend(Row{StringValue(a), StringValue(b)})
		return tb
	}
	if ChecksumTable(mk("ab", "c")) == ChecksumTable(mk("a", "bc")) {
		t.Error("cell boundary smearing")
	}
	long := strings.Repeat("z", 100)
	if ChecksumTable(mk(long, "")) == ChecksumTable(mk("", long)) {
		t.Error("column position smearing")
	}
}

// TestChecksumDataIgnoresNameOnly: ChecksumData fingerprints the answer
// (schema + rows) independent of the physical-plan-derived table name,
// but remains exactly as sensitive as ChecksumTable to everything else.
func TestChecksumDataIgnoresNameOnly(t *testing.T) {
	a := checksumFixture(t)
	b := checksumFixture(t)
	b.Name = "renamed_by_a_different_plan"
	if ChecksumTable(a) == ChecksumTable(b) {
		t.Fatal("ChecksumTable must fold the name")
	}
	if ChecksumData(a) != ChecksumData(b) {
		t.Fatal("ChecksumData must not fold the name")
	}
	b.Rows[1][0] = IntValue(99)
	if ChecksumData(a) == ChecksumData(b) {
		t.Fatal("ChecksumData missed a data flip")
	}
	c := checksumFixture(t)
	c.Schema.Columns[0].Name = "idx"
	if ChecksumData(a) == ChecksumData(c) {
		t.Fatal("ChecksumData missed a schema change")
	}
	if ChecksumData(nil) != ChecksumData(nil) {
		t.Fatal("nil checksum not deterministic")
	}
}
