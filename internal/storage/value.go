// Package storage provides the typed data model shared by both stores of the
// multistore system: values, schemas, relational tables, raw log files, and
// the catalog that tracks them. It deliberately contains no execution logic;
// the exec, hv and dw packages operate on these types.
package storage

import (
	"fmt"
	"strconv"
)

// Kind enumerates the dynamic types a Value may hold.
type Kind uint8

const (
	// KindNull is the absence of a value (missing JSON field, failed cast).
	KindNull Kind = iota
	// KindInt is a 64-bit signed integer.
	KindInt
	// KindFloat is a 64-bit IEEE float.
	KindFloat
	// KindString is an immutable UTF-8 string.
	KindString
	// KindBool is a boolean.
	KindBool
)

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	switch k {
	case KindNull:
		return "null"
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Value is a compact tagged union. The zero Value is NULL. Using a struct
// rather than interface{} keeps rows allocation-free on the hot execution
// paths and gives deterministic sizes for the byte accounting that drives
// the cost model.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
}

// Null is the NULL value.
var Null = Value{}

// IntValue returns an int Value.
func IntValue(i int64) Value { return Value{Kind: KindInt, I: i} }

// FloatValue returns a float Value.
func FloatValue(f float64) Value { return Value{Kind: KindFloat, F: f} }

// StringValue returns a string Value.
func StringValue(s string) Value { return Value{Kind: KindString, S: s} }

// BoolValue returns a bool Value.
func BoolValue(b bool) Value {
	v := Value{Kind: KindBool}
	if b {
		v.I = 1
	}
	return v
}

// IsNull reports whether v is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// Bool returns the boolean interpretation of v. NULL and zero values are
// false.
func (v Value) Bool() bool {
	switch v.Kind {
	case KindBool, KindInt:
		return v.I != 0
	case KindFloat:
		return v.F != 0
	case KindString:
		return v.S != ""
	default:
		return false
	}
}

// AsFloat coerces v to a float64, returning false when no numeric
// interpretation exists.
func (v Value) AsFloat() (float64, bool) {
	switch v.Kind {
	case KindInt:
		return float64(v.I), true
	case KindFloat:
		return v.F, true
	case KindBool:
		return float64(v.I), true
	case KindString:
		f, err := strconv.ParseFloat(v.S, 64)
		if err != nil {
			return 0, false
		}
		return f, true
	default:
		return 0, false
	}
}

// AsInt coerces v to an int64, returning false when no integer
// interpretation exists.
func (v Value) AsInt() (int64, bool) {
	switch v.Kind {
	case KindInt, KindBool:
		return v.I, true
	case KindFloat:
		return int64(v.F), true
	case KindString:
		i, err := strconv.ParseInt(v.S, 10, 64)
		if err != nil {
			return 0, false
		}
		return i, true
	default:
		return 0, false
	}
}

// String renders the value for display and for grouping keys.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.I != 0 {
			return "true"
		}
		return "false"
	default:
		return "?"
	}
}

// Compare orders two values. NULL sorts before everything; numeric kinds
// compare numerically across int/float/bool; strings compare
// lexicographically. Cross-kind comparisons between string and numeric fall
// back to kind ordering so Compare always yields a total order.
func Compare(a, b Value) int {
	// Same-kind fast paths for the two kinds that dominate join keys and
	// sort keys. Ints compare through their float64 image exactly like the
	// generic numeric path below, preserving its (documented) precision
	// limit beyond 2^53 so both paths yield identical orderings.
	if a.Kind == b.Kind {
		switch a.Kind {
		case KindInt:
			af, bf := float64(a.I), float64(b.I)
			switch {
			case af < bf:
				return -1
			case af > bf:
				return 1
			default:
				return 0
			}
		case KindString:
			switch {
			case a.S < b.S:
				return -1
			case a.S > b.S:
				return 1
			default:
				return 0
			}
		}
	}
	if a.Kind == KindNull || b.Kind == KindNull {
		switch {
		case a.Kind == b.Kind:
			return 0
		case a.Kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	if isNumeric(a.Kind) && isNumeric(b.Kind) {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.Kind == KindString && b.Kind == KindString {
		switch {
		case a.S < b.S:
			return -1
		case a.S > b.S:
			return 1
		default:
			return 0
		}
	}
	// Mixed string/numeric: order by kind to stay total.
	switch {
	case a.Kind < b.Kind:
		return -1
	case a.Kind > b.Kind:
		return 1
	default:
		return 0
	}
}

func isNumeric(k Kind) bool {
	switch k {
	case KindInt, KindFloat, KindBool:
		return true
	default:
		return false
	}
}

// Equal reports whether two values compare equal under Compare semantics.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// FNV-64a parameters, inlined so the hot hashing paths need no hash.Hash
// object or write buffer.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// HashSeed is the initial state for HashInto chains; Hash is exactly
// HashInto(HashSeed).
const HashSeed uint64 = fnvOffset64

// Hash returns a hash of the value suitable for hash joins and hash
// aggregation. Compare-equal values hash identically: all numeric kinds
// hash through their float64 image, mirroring Compare's numeric semantics
// (including its precision limit beyond 2^53).
func (v Value) Hash() uint64 {
	return v.HashInto(fnvOffset64)
}

// HashInto folds the value into a running FNV-64a state and returns the new
// state, byte-for-byte equivalent to Hash's stream but with zero
// allocations — the executor's join build and probe call it once per key
// column per row. Chain key columns as h = v.HashInto(h) starting from any
// seed.
func (v Value) HashInto(h uint64) uint64 {
	// The three per-kind legs live in vector.go so Vector.HashChainInto
	// folds the exact same byte stream column-wise.
	switch v.Kind {
	case KindNull:
		h = hashNullInto(h)
	case KindInt, KindBool, KindFloat:
		f, _ := v.AsFloat()
		h = hashNumInto(h, f)
	case KindString:
		h = hashStrInto(h, v.S)
	}
	return h
}

// EncodedSize estimates the serialized size of the value in bytes. It is the
// unit of the byte accounting used by the cost model and the view storage
// budgets.
func (v Value) EncodedSize() int64 {
	switch v.Kind {
	case KindNull:
		return 1
	case KindInt, KindFloat:
		return 8
	case KindBool:
		return 1
	case KindString:
		return int64(len(v.S)) + 2
	default:
		return 1
	}
}
