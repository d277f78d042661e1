package storage

import (
	"math"
	"math/rand"
	"testing"
)

// randValue draws a value of any kind, with deliberately nasty floats.
func randValue(rng *rand.Rand) Value {
	switch rng.Intn(6) {
	case 0:
		return Null
	case 1:
		return IntValue(rng.Int63n(1000) - 500)
	case 2:
		switch rng.Intn(4) {
		case 0:
			return FloatValue(math.Copysign(0, -1)) // -0.0
		case 1:
			return FloatValue(math.NaN())
		default:
			return FloatValue(rng.NormFloat64() * 100)
		}
	case 3:
		return StringValue(string(rune('a' + rng.Intn(26))))
	case 4:
		return BoolValue(rng.Intn(2) == 0)
	default:
		return StringValue("")
	}
}

func sameValue(a, b Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	// Compare float payloads bit-exactly: NaN != NaN and -0.0 == 0.0 under
	// ==, but the checksum hashes Float64bits, so the vector must preserve
	// the exact bit pattern.
	return a.I == b.I && a.S == b.S &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

func TestVectorRoundTripTyped(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	kinds := []Kind{KindInt, KindFloat, KindString, KindBool}
	for _, k := range kinds {
		v := NewVector(k)
		var want []Value
		for i := 0; i < 200; i++ {
			var val Value
			if rng.Intn(4) == 0 {
				val = Null
			} else {
				switch k {
				case KindInt:
					val = IntValue(rng.Int63n(100) - 50)
				case KindFloat:
					if rng.Intn(3) == 0 {
						val = FloatValue(math.Copysign(0, -1))
					} else {
						val = FloatValue(rng.NormFloat64())
					}
				case KindString:
					val = StringValue(string(rune('a' + rng.Intn(26))))
				case KindBool:
					val = BoolValue(rng.Intn(2) == 0)
				}
			}
			v.Append(val)
			want = append(want, val)
		}
		if v.Generic() {
			t.Fatalf("kind %v: vector degraded on homogeneous input", k)
		}
		if v.Len() != len(want) {
			t.Fatalf("kind %v: len %d want %d", k, v.Len(), len(want))
		}
		for i, w := range want {
			if got := v.Value(i); !sameValue(got, w) {
				t.Fatalf("kind %v elem %d: got %#v want %#v", k, i, got, w)
			}
			if v.NullAt(i) != w.IsNull() {
				t.Fatalf("kind %v elem %d: NullAt mismatch", k, i)
			}
		}
	}
}

func TestVectorGenericDegradation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	v := NewVector(KindInt)
	var want []Value
	for i := 0; i < 300; i++ {
		val := randValue(rng) // mixed kinds force degradation
		v.Append(val)
		want = append(want, val)
	}
	if !v.Generic() {
		t.Fatal("mixed-kind vector did not degrade to generic storage")
	}
	for i, w := range want {
		if got := v.Value(i); !sameValue(got, w) {
			t.Fatalf("elem %d: got %#v want %#v", i, got, w)
		}
	}
}

func TestVectorHashChainMatchesValueHashInto(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// Two key columns: chain hashes column-wise and compare against the
	// row-wise Value.HashInto chain, over typed and degraded vectors alike.
	for trial := 0; trial < 8; trial++ {
		n := 1 + rng.Intn(200)
		kinds := []Kind{KindInt, KindFloat, KindString, KindBool}
		c0 := NewVector(kinds[rng.Intn(len(kinds))])
		c1 := NewVector(kinds[rng.Intn(len(kinds))])
		rows := make([]Row, n)
		for i := range rows {
			var a, b Value
			if trial%2 == 0 {
				a, b = randValue(rng), randValue(rng) // degrade
			} else {
				switch c0.Kind() {
				case KindInt:
					a = IntValue(rng.Int63n(50))
				case KindFloat:
					a = FloatValue(rng.NormFloat64())
				case KindString:
					a = StringValue("k")
				case KindBool:
					a = BoolValue(true)
				}
				b = Null
			}
			rows[i] = Row{a, b}
			c0.Append(a)
			c1.Append(b)
		}
		hs := make([]uint64, n)
		for i := range hs {
			hs[i] = HashSeed
		}
		c0.HashChainInto(hs)
		c1.HashChainInto(hs)
		for i, r := range rows {
			want := HashSeed
			for _, v := range r {
				want = v.HashInto(want)
			}
			if hs[i] != want {
				t.Fatalf("trial %d row %d: vector hash %x want %x", trial, i, hs[i], want)
			}
		}
	}
}

func TestVectorTruesInto(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.Intn(300)
		kind := []Kind{KindInt, KindFloat, KindString, KindBool, KindNull}[rng.Intn(5)]
		v := NewVector(kind)
		vals := make([]Value, n)
		for i := range vals {
			vals[i] = randValue(rng)
			if kind != KindNull && rng.Intn(2) == 0 {
				// Bias toward the declared kind so some trials stay typed.
				switch kind {
				case KindInt:
					vals[i] = IntValue(rng.Int63n(3) - 1)
				case KindFloat:
					vals[i] = FloatValue(float64(rng.Intn(3) - 1))
				case KindString:
					vals[i] = StringValue([]string{"", "x"}[rng.Intn(2)])
				case KindBool:
					vals[i] = BoolValue(rng.Intn(2) == 0)
				}
			}
			v.Append(vals[i])
		}
		const base = int32(1000)
		sel := v.TruesInto(nil, base)
		var want []int32
		for i, val := range vals {
			if !val.IsNull() && val.Bool() {
				want = append(want, base+int32(i))
			}
		}
		if len(sel) != len(want) {
			t.Fatalf("trial %d: sel len %d want %d", trial, len(sel), len(want))
		}
		for i := range sel {
			if sel[i] != want[i] {
				t.Fatalf("trial %d: sel[%d]=%d want %d", trial, i, sel[i], want[i])
			}
		}
	}
}

func TestVectorGatherAndFromRowsSel(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 8; trial++ {
		n := 1 + rng.Intn(100)
		rows := make([]Row, n)
		src := NewVector(KindFloat)
		for i := range rows {
			var val Value
			switch rng.Intn(3) {
			case 0:
				val = Null
			case 1:
				val = FloatValue(rng.NormFloat64())
			default:
				if trial%2 == 0 {
					val = StringValue("mix") // force degraded source half the time
				} else {
					val = FloatValue(math.Copysign(0, -1))
				}
			}
			rows[i] = Row{val}
			src.Append(val)
		}
		var sel []int32
		for i := 0; i < n; i++ {
			if rng.Intn(2) == 0 {
				sel = append(sel, int32(i))
			}
		}
		var g, f Vector
		g.Gather(src, sel)
		f.FromRowsSel(rows, 0, KindFloat, sel)
		if g.Len() != len(sel) || f.Len() != len(sel) {
			t.Fatalf("trial %d: gather len %d fromRowsSel len %d want %d", trial, g.Len(), f.Len(), len(sel))
		}
		for j, i := range sel {
			want := rows[i][0]
			if got := g.Value(j); !sameValue(got, want) {
				t.Fatalf("trial %d: Gather[%d]=%#v want %#v", trial, j, got, want)
			}
			if got := f.Value(j); !sameValue(got, want) {
				t.Fatalf("trial %d: FromRowsSel[%d]=%#v want %#v", trial, j, got, want)
			}
		}
	}
}

func TestVectorNullsInto(t *testing.T) {
	v := NewVector(KindInt)
	v.Append(IntValue(1))
	v.Append(Null)
	v.Append(IntValue(3))
	ok := []bool{true, true, true}
	v.NullsInto(ok)
	if !ok[0] || ok[1] || !ok[2] {
		t.Fatalf("NullsInto: got %v want [true false true]", ok)
	}
	// Degraded path.
	v.Append(StringValue("x"))
	v.Append(Null)
	ok = []bool{true, true, true, true, true}
	v.NullsInto(ok)
	if !ok[0] || ok[1] || !ok[2] || !ok[3] || ok[4] {
		t.Fatalf("NullsInto generic: got %v", ok)
	}
}

func TestVectorResetReusesCapacity(t *testing.T) {
	v := NewVector(KindInt)
	for i := 0; i < 1024; i++ {
		v.Append(IntValue(int64(i)))
	}
	allocs := testing.AllocsPerRun(100, func() {
		v.Reset(KindInt)
		for i := 0; i < 1024; i++ {
			v.Append(IntValue(int64(i)))
		}
	})
	if allocs != 0 {
		t.Fatalf("Reset+Append allocated %v per run, want 0", allocs)
	}
}
