package storage

import (
	"hash/fnv"
	"math"
	"math/rand"
	"testing"
)

// referenceChecksum is the checksum written through hash/fnv: the
// definition the hand-rolled kernel must match bit for bit.
func referenceChecksum(t *Table, named bool) uint64 {
	h := fnv.New64a()
	if t == nil {
		return h.Sum64()
	}
	if named {
		h.Write([]byte(t.Name))
		h.Write([]byte{0})
	}
	if t.Schema != nil {
		for _, col := range t.Schema.Columns {
			h.Write([]byte(col.Name))
			h.Write([]byte{byte(col.Type), 0})
		}
	}
	h.Write([]byte{0xff})
	for _, r := range t.Rows {
		for _, v := range r {
			h.Write([]byte{byte(v.Kind)})
			var u uint64
			switch v.Kind {
			case KindInt, KindBool:
				u = uint64(v.I)
			case KindFloat:
				u = math.Float64bits(v.F)
			case KindString:
				h.Write([]byte(v.S))
				h.Write([]byte{0})
				continue
			default:
				continue
			}
			buf := [9]byte{1}
			for i := 0; i < 8; i++ {
				buf[i+1] = byte(u >> (8 * i))
			}
			h.Write(buf[:])
		}
		h.Write([]byte{0xfe})
	}
	return h.Sum64()
}

// randomTable builds a table of every kind with the values a checksum is
// easiest to get wrong on: NaN, negative zero, infinities, empty and
// non-ASCII strings, NULLs in every column, extreme integers.
func randomTable(r *rand.Rand, rows int) *Table {
	sch := MustSchema(
		Column{Name: "i", Type: KindInt},
		Column{Name: "f", Type: KindFloat},
		Column{Name: "s", Type: KindString},
		Column{Name: "b", Type: KindBool},
	)
	floats := []float64{math.NaN(), math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), 1.5, -2.25}
	strs := []string{"", "a", "ümlaut", "x\x00y", "tweet #food"}
	ints := []int64{0, -1, 1, math.MaxInt64, math.MinInt64}
	t := NewTable("random", sch)
	t.ScaleFactor = 3
	for i := 0; i < rows; i++ {
		row := Row{
			IntValue(ints[r.Intn(len(ints))] + r.Int63n(3)),
			FloatValue(floats[r.Intn(len(floats))]),
			StringValue(strs[r.Intn(len(strs))]),
			BoolValue(r.Intn(2) == 0),
		}
		row[r.Intn(len(row))] = Null
		t.MustAppend(row)
	}
	return t
}

func TestChecksumKernelMatchesFNV(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	if got, want := ChecksumTable(nil), referenceChecksum(nil, true); got != want {
		t.Errorf("nil table: %x, want %x", got, want)
	}
	if got, want := ChecksumTable(&Table{Name: "bare"}), referenceChecksum(&Table{Name: "bare"}, true); got != want {
		t.Errorf("schemaless table: %x, want %x", got, want)
	}
	for _, rows := range []int{0, 1, 2, 17, 300} {
		tb := randomTable(r, rows)
		if got, want := ChecksumTable(tb), referenceChecksum(tb, true); got != want {
			t.Errorf("%d rows: ChecksumTable %x, want %x", rows, got, want)
		}
		if got, want := ChecksumData(tb), referenceChecksum(tb, false); got != want {
			t.Errorf("%d rows: ChecksumData %x, want %x", rows, got, want)
		}
	}
}

// TestExtendChecksumEqualsWholeTable: extending the checksum of a table over
// appended rows is the checksum of the concatenated table, whose byte count
// is the sum of the parts.
func TestExtendChecksumEqualsWholeTable(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, n := range [][2]int{{0, 0}, {0, 5}, {5, 0}, {40, 3}, {3, 200}} {
		old, delta := randomTable(r, n[0]), randomTable(r, n[1])
		whole := old.Concat(delta)
		if got, want := ExtendChecksum(ChecksumTable(old), delta.Rows), ChecksumTable(whole); got != want {
			t.Errorf("%v rows: extended %x, whole %x", n, got, want)
		}
		if whole.NumRows() != n[0]+n[1] || whole.RawBytes() != old.RawBytes()+delta.RawBytes() ||
			whole.Name != old.Name || whole.ScaleFactor != old.ScaleFactor {
			t.Errorf("%v rows: concat has %d rows, %d bytes, name %q, scale %v", n, whole.NumRows(), whole.RawBytes(), whole.Name, whole.ScaleFactor)
		}
		if old.NumRows() != n[0] {
			t.Errorf("%v rows: concat wrote its input (%d rows)", n, old.NumRows())
		}
	}
}

func TestChecksumKernelAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	tb := randomTable(rand.New(rand.NewSource(3)), 500)
	if n := testing.AllocsPerRun(10, func() { ChecksumTable(tb) }); n != 0 {
		t.Errorf("ChecksumTable allocates %.0f times over %d rows", n, tb.NumRows())
	}
	if n := testing.AllocsPerRun(10, func() { ExtendChecksum(1, tb.Rows) }); n != 0 {
		t.Errorf("ExtendChecksum allocates %.0f times over %d rows", n, tb.NumRows())
	}
}
