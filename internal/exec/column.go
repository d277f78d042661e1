// Columnar execution support: per-worker scratch for batch-at-a-time
// operators. The morsel operators in this package evaluate expressions over
// typed column vectors (storage.Vector) via expr.BatchCompiled evaluators;
// this file holds the shared glue — reusable key-hash scratch and the
// output-row arena that batches row allocations at operator output
// boundaries.
//
// Everything here is per-worker state: one instance per morsel-pool worker,
// reused across morsels, never shared between goroutines.
package exec

import (
	"miso/internal/storage"
)

// arenaBlockValues sizes the rowArena's allocation blocks. Large enough to
// amortize one make() over hundreds of output rows, small enough that a
// mostly-unused tail block wastes little.
const arenaBlockValues = 4096

// arenaFirstRows is how many output rows a join's first arena block holds;
// later blocks double up to arenaBlockValues, so a join that emits a few
// rows allocates for a few rows.
const arenaFirstRows = 16

// rowArena carves output rows out of shared value blocks, replacing one
// allocation per row with one per block. Blocks are never reused — output
// rows retain them — so the arena may live across morsels; alloc returns a
// zero-length slice with exactly the requested capacity, ready for append.
type rowArena struct {
	blk []storage.Value
	off int
	// next sizes the next block: it starts at the caller's estimate and
	// doubles up to arenaBlockValues.
	next int
}

// newRowArena returns an arena whose first block holds estimate values,
// clamped to [1, arenaBlockValues].
func newRowArena(estimate int) rowArena {
	return rowArena{next: min(max(estimate, 1), arenaBlockValues)}
}

func (a *rowArena) alloc(n int) storage.Row {
	if a.off+n > len(a.blk) {
		sz := max(n, a.next)
		a.next = min(2*a.next, arenaBlockValues)
		a.blk = make([]storage.Value, sz)
		a.off = 0
	}
	s := a.blk[a.off : a.off : a.off+n]
	a.off += n
	return s
}

// growU64 returns a length-n slice, reusing s's storage when it is big
// enough.
func growU64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growBool(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// keyHasher is per-worker scratch for column-wise key hashing: it
// transposes the key columns of a row window into vectors and folds them
// into one FNV-64a chain per row, exactly matching the reference join's per-row
// Value.HashInto chain. Rows whose key contains a NULL get ok=false (their
// hash slot holds an unspecified value — NULL keys never match).
type keyHasher struct {
	vecs []storage.Vector
	hs   []uint64
	ok   []bool
}

// hashWindow hashes the idx key columns of rows. The returned slices are
// scratch, valid until the next call.
func (kh *keyHasher) hashWindow(rows []storage.Row, schema *storage.Schema, idx []int) ([]uint64, []bool) {
	n := len(rows)
	if kh.vecs == nil {
		kh.vecs = make([]storage.Vector, len(idx))
	}
	kh.hs = growU64(kh.hs, n)
	kh.ok = growBool(kh.ok, n)
	hs, ok := kh.hs[:n], kh.ok[:n]
	for i := range hs {
		hs[i] = storage.HashSeed
		ok[i] = true
	}
	for k, ci := range idx {
		v := &kh.vecs[k]
		v.FromRows(rows, ci, schema.Columns[ci].Type)
		v.NullsInto(ok)
		v.HashChainInto(hs)
	}
	return hs, ok
}
