package storage

import "math"

// ChecksumTable computes an FNV-64a content checksum over a table's schema
// and rows, in row order. It is the integrity fingerprint stamped on every
// materialized view and transferred working set: recomputing it at load or
// match time and comparing against the stamped value detects bit rot and
// torn writes. Row order is part of the content — tables are write-once, so
// a reordered copy is a different artifact.
func ChecksumTable(t *Table) uint64 {
	if t == nil {
		return fnvOffset64
	}
	h := fnvString(fnvOffset64, t.Name)
	h = fnvByte(h, 0)
	return checksumBody(h, t)
}

// ChecksumData is ChecksumTable without the table name: a fingerprint of
// the answer itself (schema and rows) independent of the physical plan
// that produced it. Result-table names embed the chosen plan shape —
// which views were substituted — so two semantically identical answers
// computed before and after opportunistic view capture carry different
// names. The reuse plane keys correctness on what the user receives, so
// its digests use this form; artifact integrity (views, transfers) keeps
// using ChecksumTable, where the name is part of the artifact.
func ChecksumData(t *Table) uint64 {
	if t == nil {
		return fnvOffset64
	}
	return checksumBody(fnvOffset64, t)
}

// ExtendChecksum continues a checksum over rows appended after the ones it
// covers: ExtendChecksum(ChecksumTable(t), more) is ChecksumTable of t with
// more appended, computed in time proportional to more alone. The rows are
// the last thing the checksum's stream holds and FNV-64a's state is its
// sum, so the sum is the state to continue from.
func ExtendChecksum(sum uint64, rows []Row) uint64 {
	for _, r := range rows {
		for _, v := range r {
			sum = checksumValue(sum, v)
		}
		sum = fnvByte(sum, 0xfe)
	}
	return sum
}

func checksumBody(h uint64, t *Table) uint64 {
	if t.Schema != nil {
		for _, col := range t.Schema.Columns {
			h = fnvString(h, col.Name)
			h = fnvByte(fnvByte(h, byte(col.Type)), 0)
		}
	}
	h = fnvByte(h, 0xff)
	return ExtendChecksum(h, t.Rows)
}

// checksumValue folds one value: its kind tag, then a 1 marker and the
// eight little-endian bytes of an int, bool or float's bits, or a string's
// bytes and a 0 terminator.
func checksumValue(h uint64, v Value) uint64 {
	h = fnvByte(h, byte(v.Kind))
	switch v.Kind {
	case KindInt, KindBool:
		h = fnvWord(fnvByte(h, 1), uint64(v.I))
	case KindFloat:
		h = fnvWord(fnvByte(h, 1), math.Float64bits(v.F))
	case KindString:
		h = fnvByte(fnvString(h, v.S), 0)
	}
	return h
}

func fnvByte(h uint64, b byte) uint64 { return (h ^ uint64(b)) * fnvPrime64 }

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

func fnvWord(h, u uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(u>>(8*i)))) * fnvPrime64
	}
	return h
}
