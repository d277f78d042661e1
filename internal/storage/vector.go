// Typed column vectors: the columnar counterpart of Row for the batch
// execution path. A Vector holds one column of a row batch in a typed
// slice (int64/float64/string, with bool packed into the int slice as 0/1)
// plus a null bitmap, so vectorized kernels can run tight per-kind loops
// instead of switching on Value.Kind per row. A column whose values do not
// all share the declared kind degrades to a generic []Value representation
// that round-trips every value exactly, so the columnar path can never
// change what a value is — only how fast it is scanned.
//
// Vectors are scratch state: they are Reset and refilled batch after batch
// by a single goroutine. Nothing here locks.
package storage

import "math"

// Vector is one column of a row batch. The zero Vector is an empty int
// vector; call Reset to choose the element kind. Exported slice fields give
// kernels direct access to the typed storage; use the Append*/Value
// accessors everywhere correctness matters more than the inner loop.
type Vector struct {
	// Ints holds KindInt elements, and KindBool elements as 0/1 — the
	// same packing Value uses for its I field.
	Ints []int64
	// Floats holds KindFloat elements bit-exactly (including -0 and NaN).
	Floats []float64
	// Strs holds KindString elements.
	Strs []string
	// Vals is the generic fallback storage, used when the column's values
	// do not all match the declared kind (see Generic).
	Vals []Value

	kind    Kind
	generic bool
	nulls   []uint64 // bitmap: bit i set = element i is NULL
	anyNull bool
	n       int
}

// NewVector returns an empty vector of the given element kind.
func NewVector(kind Kind) *Vector {
	v := &Vector{}
	v.Reset(kind)
	return v
}

// Reset empties the vector and sets its element kind, keeping the
// underlying capacity so a reused vector stops allocating after its first
// fill. KindNull selects the generic representation directly.
func (v *Vector) Reset(kind Kind) {
	v.Ints = v.Ints[:0]
	v.Floats = v.Floats[:0]
	v.Strs = v.Strs[:0]
	v.Vals = v.Vals[:0]
	v.nulls = v.nulls[:0]
	v.kind = kind
	v.generic = kind == KindNull
	v.anyNull = false
	v.n = 0
}

// Len returns the element count.
func (v *Vector) Len() int { return v.n }

// Kind returns the declared element kind (meaningless when Generic).
func (v *Vector) Kind() Kind { return v.kind }

// Generic reports whether the vector degraded to generic []Value storage.
func (v *Vector) Generic() bool { return v.generic }

// NullAt reports whether element i is NULL.
func (v *Vector) NullAt(i int) bool {
	if v.generic {
		return v.Vals[i].IsNull()
	}
	if !v.anyNull {
		return false
	}
	return v.nulls[i>>6]&(1<<(uint(i)&63)) != 0
}

func (v *Vector) pushNullBit(isNull bool) {
	w := v.n >> 6
	for w >= len(v.nulls) {
		v.nulls = append(v.nulls, 0)
	}
	if isNull {
		v.nulls[w] |= 1 << (uint(v.n) & 63)
		v.anyNull = true
	} else {
		v.nulls[w] &^= 1 << (uint(v.n) & 63)
	}
}

// degrade switches a typed vector to the generic representation, copying
// the elements appended so far.
func (v *Vector) degrade() {
	if v.generic {
		return
	}
	vals := v.Vals[:0]
	for i := 0; i < v.n; i++ {
		vals = append(vals, v.Value(i))
	}
	v.Vals = vals
	v.generic = true
	v.Ints = v.Ints[:0]
	v.Floats = v.Floats[:0]
	v.Strs = v.Strs[:0]
}

// Append adds one value. A non-NULL value whose kind differs from the
// declared kind degrades the vector to generic storage, preserving every
// element exactly.
func (v *Vector) Append(val Value) {
	if v.generic {
		v.Vals = append(v.Vals, val)
		v.n++
		return
	}
	switch {
	case val.Kind == KindNull:
		v.AppendNull()
		return
	case val.Kind != v.kind:
		v.degrade()
		v.Vals = append(v.Vals, val)
		v.n++
		return
	}
	v.pushNullBit(false)
	switch v.kind {
	case KindInt, KindBool:
		v.Ints = append(v.Ints, val.I)
	case KindFloat:
		v.Floats = append(v.Floats, val.F)
	case KindString:
		v.Strs = append(v.Strs, val.S)
	}
	v.n++
}

// AppendNull adds a NULL element.
func (v *Vector) AppendNull() {
	if v.generic {
		v.Vals = append(v.Vals, Null)
		v.n++
		return
	}
	v.pushNullBit(true)
	switch v.kind {
	case KindInt, KindBool:
		v.Ints = append(v.Ints, 0)
	case KindFloat:
		v.Floats = append(v.Floats, 0)
	case KindString:
		v.Strs = append(v.Strs, "")
	}
	v.n++
}

// AppendBool adds a non-NULL bool element to a bool vector.
func (v *Vector) AppendBool(b bool) {
	if v.generic || v.kind != KindBool {
		v.Append(BoolValue(b))
		return
	}
	v.pushNullBit(false)
	if b {
		v.Ints = append(v.Ints, 1)
	} else {
		v.Ints = append(v.Ints, 0)
	}
	v.n++
}

// Value reconstructs element i as a Value, exactly equal (including Kind)
// to the value that was appended.
func (v *Vector) Value(i int) Value {
	if v.generic {
		return v.Vals[i]
	}
	if v.NullAt(i) {
		return Null
	}
	switch v.kind {
	case KindInt:
		return Value{Kind: KindInt, I: v.Ints[i]}
	case KindFloat:
		return Value{Kind: KindFloat, F: v.Floats[i]}
	case KindString:
		return Value{Kind: KindString, S: v.Strs[i]}
	case KindBool:
		return Value{Kind: KindBool, I: v.Ints[i]}
	default:
		return Null
	}
}

// FromRows fills the vector with column col of each row, declaring the
// given element kind. Values of other kinds degrade the vector to generic
// storage; either way every value round-trips exactly.
func (v *Vector) FromRows(rows []Row, col int, kind Kind) {
	v.Reset(kind)
	for _, r := range rows {
		v.Append(r[col])
	}
}

// FromRowsSel fills the vector with column col of rows[sel[j]] for each
// selected index, in selection order.
func (v *Vector) FromRowsSel(rows []Row, col int, kind Kind, sel []int32) {
	v.Reset(kind)
	for _, i := range sel {
		v.Append(rows[i][col])
	}
}

// Gather fills the vector with src elements at the selected indices, in
// selection order.
func (v *Vector) Gather(src *Vector, sel []int32) {
	if src.generic {
		v.Reset(KindNull)
		for _, i := range sel {
			v.Vals = append(v.Vals, src.Vals[i])
		}
		v.n = len(sel)
		return
	}
	v.Reset(src.kind)
	if !src.anyNull {
		// Bulk per-kind gather with no bitmap maintenance: the bitmap only
		// exists once a null is appended, and none will be.
		switch src.kind {
		case KindInt, KindBool:
			for _, i := range sel {
				v.Ints = append(v.Ints, src.Ints[i])
			}
		case KindFloat:
			for _, i := range sel {
				v.Floats = append(v.Floats, src.Floats[i])
			}
		case KindString:
			for _, i := range sel {
				v.Strs = append(v.Strs, src.Strs[i])
			}
		}
		v.n = len(sel)
		return
	}
	for _, i := range sel {
		if src.NullAt(int(i)) {
			v.AppendNull()
			continue
		}
		switch src.kind {
		case KindInt, KindBool:
			v.pushNullBit(false)
			v.Ints = append(v.Ints, src.Ints[i])
			v.n++
		case KindFloat:
			v.pushNullBit(false)
			v.Floats = append(v.Floats, src.Floats[i])
			v.n++
		case KindString:
			v.pushNullBit(false)
			v.Strs = append(v.Strs, src.Strs[i])
			v.n++
		}
	}
}

// TruesInto appends to sel the indices of elements that are non-NULL and
// boolean-true under Value.Bool semantics (numeric non-zero, non-empty
// string), offset by base. It is the Filter operator's selection-vector
// kernel and allocates nothing when sel has capacity.
func (v *Vector) TruesInto(sel []int32, base int32) []int32 {
	if v.generic {
		for i, val := range v.Vals {
			if !val.IsNull() && val.Bool() {
				sel = append(sel, base+int32(i))
			}
		}
		return sel
	}
	switch v.kind {
	case KindInt, KindBool:
		for i, x := range v.Ints {
			if x != 0 && !v.NullAt(i) {
				sel = append(sel, base+int32(i))
			}
		}
	case KindFloat:
		for i, f := range v.Floats {
			if f != 0 && !v.NullAt(i) {
				sel = append(sel, base+int32(i))
			}
		}
	case KindString:
		for i, s := range v.Strs {
			if s != "" && !v.NullAt(i) {
				sel = append(sel, base+int32(i))
			}
		}
	}
	return sel
}

// hashNullInto, hashNumInto and hashStrInto are the three per-kind legs of
// Value.HashInto, shared with the vectorized chain so both paths fold the
// exact same byte stream.
func hashNullInto(h uint64) uint64 { return (h ^ 0) * fnvPrime64 }

func hashNumInto(h uint64, f float64) uint64 {
	if f == 0 {
		f = 0 // normalize -0.0
	}
	u := math.Float64bits(f)
	h = (h ^ 1) * fnvPrime64
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(u>>(8*i)))) * fnvPrime64
	}
	return h
}

func hashStrInto(h uint64, s string) uint64 {
	h = (h ^ 2) * fnvPrime64
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// HashChainInto folds element i into hs[i] for every element, exactly as
// chaining Value.HashInto over the reconstructed values would — the
// columnar leg of the join/aggregate key-hash chain. hs must have at least
// Len entries. It allocates nothing.
func (v *Vector) HashChainInto(hs []uint64) {
	if v.generic {
		for i, val := range v.Vals {
			hs[i] = val.HashInto(hs[i])
		}
		return
	}
	switch v.kind {
	case KindInt, KindBool:
		for i, x := range v.Ints {
			if v.NullAt(i) {
				hs[i] = hashNullInto(hs[i])
			} else {
				hs[i] = hashNumInto(hs[i], float64(x))
			}
		}
	case KindFloat:
		for i, f := range v.Floats {
			if v.NullAt(i) {
				hs[i] = hashNullInto(hs[i])
			} else {
				hs[i] = hashNumInto(hs[i], f)
			}
		}
	case KindString:
		for i, s := range v.Strs {
			if v.NullAt(i) {
				hs[i] = hashNullInto(hs[i])
			} else {
				hs[i] = hashStrInto(hs[i], s)
			}
		}
	}
}

// CompareAt orders elements i and j exactly as Compare(v.Value(i),
// v.Value(j)) would — NULL first, ints through their float64 image
// (preserving Compare's documented precision limit beyond 2^53), floats
// numerically, strings lexicographically — without reconstructing Values.
// It is the vectorized Sort comparator's per-column kernel; orderings are
// digest-identical to the serial row comparator by construction.
func (v *Vector) CompareAt(i, j int) int {
	if v.generic {
		return Compare(v.Vals[i], v.Vals[j])
	}
	if v.anyNull {
		ni, nj := v.NullAt(i), v.NullAt(j)
		switch {
		case ni && nj:
			return 0
		case ni:
			return -1
		case nj:
			return 1
		}
	}
	switch v.kind {
	case KindInt, KindBool:
		af, bf := float64(v.Ints[i]), float64(v.Ints[j])
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
	case KindFloat:
		switch {
		case v.Floats[i] < v.Floats[j]:
			return -1
		case v.Floats[i] > v.Floats[j]:
			return 1
		}
	case KindString:
		switch {
		case v.Strs[i] < v.Strs[j]:
			return -1
		case v.Strs[i] > v.Strs[j]:
			return 1
		}
	}
	return 0
}

// NullsInto clears ok[i] for every NULL element; non-NULL elements leave
// ok[i] untouched. The join hash phase uses it to mark rows whose key
// contains a NULL (NULL keys never match).
func (v *Vector) NullsInto(ok []bool) {
	if v.generic {
		for i, val := range v.Vals {
			if val.IsNull() {
				ok[i] = false
			}
		}
		return
	}
	if !v.anyNull {
		return
	}
	for i := 0; i < v.n; i++ {
		if v.NullAt(i) {
			ok[i] = false
		}
	}
}
