package expr

import (
	"math"
	"math/rand"
	"testing"

	"miso/internal/storage"
)

// batchTestSchema declares one column per kind plus a second int column for
// column-against-column shapes. Columns deliberately hold occasional
// off-kind values (via the mixed generator) to hit the generic paths.
func batchTestSchema(t *testing.T) *storage.Schema {
	t.Helper()
	s, err := storage.NewSchema(
		storage.Column{Name: "i", Type: storage.KindInt},
		storage.Column{Name: "j", Type: storage.KindInt},
		storage.Column{Name: "f", Type: storage.KindFloat},
		storage.Column{Name: "s", Type: storage.KindString},
		storage.Column{Name: "b", Type: storage.KindBool},
	)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func randBatchRows(rng *rand.Rand, n int, mixed bool) []storage.Row {
	rows := make([]storage.Row, n)
	strs := []string{"", "en", "es", "meta", "m_ta", "12.5", "-3", "zz"}
	for i := range rows {
		r := storage.Row{
			storage.IntValue(rng.Int63n(20) - 10),
			storage.IntValue(rng.Int63n(20) - 10),
			storage.FloatValue(rng.NormFloat64() * 5),
			storage.StringValue(strs[rng.Intn(len(strs))]),
			storage.BoolValue(rng.Intn(2) == 0),
		}
		for c := range r {
			switch {
			case rng.Intn(5) == 0:
				r[c] = storage.Null
			case mixed && rng.Intn(6) == 0:
				// Off-kind value: degrades the column vector to generic.
				r[c] = storage.StringValue("7")
			}
		}
		if rng.Intn(10) == 0 {
			r[2] = storage.FloatValue(math.Copysign(0, -1))
		}
		rows[i] = r
	}
	return rows
}

func batchTestExprs() map[string]Expr {
	col := func(n string) Expr { return &ColRef{Name: n} }
	ic := func(i int64) Expr { return &Const{Val: storage.IntValue(i)} }
	sc := func(s string) Expr { return &Const{Val: storage.StringValue(s)} }
	bin := func(op string, l, r Expr) Expr { return &BinOp{Op: op, L: l, R: r} }
	return map[string]Expr{
		"cmp_int_const":   bin(">", col("i"), ic(2)),
		"cmp_const_int":   bin("<=", ic(0), col("i")),
		"cmp_str_const":   bin("=", col("s"), sc("en")),
		"cmp_vec_vec":     bin("<", col("i"), col("j")),
		"cmp_int_float":   bin(">=", col("i"), col("f")),
		"cmp_mixed_kinds": bin("=", col("s"), col("i")),
		"arith_int_const": bin("+", col("i"), ic(3)),
		"arith_const_int": bin("-", ic(100), col("i")),
		"arith_mul":       bin("*", col("i"), col("j")),
		"arith_div":       bin("/", col("f"), col("i")),
		"arith_mod_int":   bin("%", col("i"), col("j")),
		"arith_mod_zero":  bin("%", col("i"), ic(0)),
		"arith_float_mod": bin("%", col("f"), col("j")),
		"arith_str_num":   bin("+", col("s"), ic(1)),
		"arith_bool":      bin("*", col("b"), col("i")),
		"and":             bin("AND", bin(">", col("i"), ic(0)), bin("<", col("j"), ic(5))),
		"or":              bin("OR", bin("=", col("s"), sc("en")), col("b")),
		"and_nonbool":     bin("AND", col("i"), col("s")),
		"not":             &Not{E: bin(">", col("f"), ic(0))},
		"neg_int":         &Neg{E: col("i")},
		"neg_float":       &Neg{E: col("f")},
		"neg_str":         &Neg{E: col("s")},
		"is_null":         &IsNull{E: col("f")},
		"is_not_null":     &IsNull{E: col("s"), Neg: true},
		"in_const":        &In{E: col("s"), Items: []Expr{sc("en"), sc("es")}},
		"in_dyn":          &In{E: col("i"), Items: []Expr{col("j"), ic(1)}},
		"not_in":          &In{E: col("i"), Items: []Expr{ic(1), ic(2)}, Neg: true},
		"like_const":      bin("LIKE", col("s"), sc("m%a")),
		"like_underscore": bin("LIKE", col("s"), sc("m_ta")),
		"like_vec":        bin("LIKE", col("s"), col("s")),
		"func_upper":      &Func{Name: "UPPER", Args: []Expr{col("s")}},
		"func_in_and":     bin("AND", bin(">", &Func{Name: "LENGTH", Args: []Expr{col("s")}}, ic(1)), col("b")),
		"func_in_cmp":     bin(">", &Func{Name: "SENTIMENT", Args: []Expr{col("s")}}, ic(0)),
		"const_fold":      bin("+", ic(2), ic(3)),
		"const_null_cmp":  bin("=", col("i"), &Const{Val: storage.Null}),
		"nested":          bin("AND", bin(">", bin("*", col("i"), ic(2)), col("j")), &IsNull{E: col("f"), Neg: true}),
		// The kernel/fallback boundary: shapes the row evaluator serves
		// sitting under and over the accelerated ones.
		"fb_arith_under_cmp": bin("AND", bin(">", bin("+", col("i"), ic(1)), ic(3)), &In{E: col("s"), Items: []Expr{sc("en"), sc("es")}}),
		"fb_not_under_or":    bin("OR", &Not{E: bin(">", col("i"), ic(1))}, bin("=", col("j"), ic(2))),
		"fb_const_left":      bin("<", ic(5), col("i")),
		"fb_in_dyn_item":     &In{E: col("i"), Items: []Expr{ic(1), col("j")}},
		"fb_like_under_and":  bin("AND", bin("LIKE", col("s"), sc("m%")), bin(">=", col("i"), ic(0))),
		"fb_neg_under_cmp":   bin("<", &Neg{E: col("i")}, ic(0)),
		"fb_isnull_under_or": bin("OR", &IsNull{E: col("i")}, bin("=", col("i"), ic(1))),
	}
}

func valuesBitEqual(a, b storage.Value) bool {
	return a.Kind == b.Kind && a.I == b.I && a.S == b.S &&
		math.Float64bits(a.F) == math.Float64bits(b.F)
}

// TestCompileBatchMatchesCompile is the core equivalence check: for every
// expression shape, the batch evaluator must return bit-identical values to
// the row evaluator, with and without a selection vector, on clean and
// mixed-kind (generic-degraded) inputs.
func TestCompileBatchMatchesCompile(t *testing.T) {
	schema := batchTestSchema(t)
	rng := rand.New(rand.NewSource(42))
	for name, e := range batchTestExprs() {
		for _, mixed := range []bool{false, true} {
			rows := randBatchRows(rng, 257, mixed)
			rowEval, err := Compile(e, schema)
			if err != nil {
				t.Fatalf("%s: Compile: %v", name, err)
			}
			batchEval, err := CompileBatch(e, schema)
			if err != nil {
				t.Fatalf("%s: CompileBatch: %v", name, err)
			}
			b := NewBatch(schema)
			b.Reset(rows)

			// Full batch.
			out := batchEval(b, nil)
			if out.Len() != len(rows) {
				t.Fatalf("%s mixed=%v: batch len %d want %d", name, mixed, out.Len(), len(rows))
			}
			for i, r := range rows {
				want := rowEval(r)
				if got := out.Value(i); !valuesBitEqual(got, want) {
					t.Fatalf("%s mixed=%v row %d: batch %#v row-eval %#v", name, mixed, i, got, want)
				}
			}

			// Random selection (possibly empty), evaluated densely.
			var sel []int32
			for i := range rows {
				if rng.Intn(3) == 0 {
					sel = append(sel, int32(i))
				}
			}
			out = batchEval(b, sel)
			if out.Len() != len(sel) {
				t.Fatalf("%s mixed=%v: sel len %d want %d", name, mixed, out.Len(), len(sel))
			}
			for j, i := range sel {
				want := rowEval(rows[i])
				if got := out.Value(j); !valuesBitEqual(got, want) {
					t.Fatalf("%s mixed=%v sel %d (row %d): batch %#v row-eval %#v", name, mixed, j, i, got, want)
				}
			}
		}
	}
}

// TestRefineSelection checks the predicate-chain helper: refining a dense
// predicate result keeps exactly the rows the row evaluator keeps.
func TestRefineSelection(t *testing.T) {
	schema := batchTestSchema(t)
	rng := rand.New(rand.NewSource(5))
	rows := randBatchRows(rng, 300, true)
	p1, err := CompileBatch(&BinOp{Op: ">", L: &ColRef{Name: "i"}, R: &Const{Val: storage.IntValue(0)}}, schema)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := CompileBatch(&BinOp{Op: "<", L: &ColRef{Name: "j"}, R: &Const{Val: storage.IntValue(4)}}, schema)
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := Compile(&BinOp{Op: ">", L: &ColRef{Name: "i"}, R: &Const{Val: storage.IntValue(0)}}, schema)
	r2, _ := Compile(&BinOp{Op: "<", L: &ColRef{Name: "j"}, R: &Const{Val: storage.IntValue(4)}}, schema)

	b := NewBatch(schema)
	b.Reset(rows)
	sel := p1(b, nil).TruesInto(nil, 0)
	sel = RefineSelection(sel, p2(b, sel))

	var want []int32
	for i, r := range rows {
		v1, v2 := r1(r), r2(r)
		if !v1.IsNull() && v1.Bool() && !v2.IsNull() && v2.Bool() {
			want = append(want, int32(i))
		}
	}
	if len(sel) != len(want) {
		t.Fatalf("refined sel len %d want %d", len(sel), len(want))
	}
	for i := range sel {
		if sel[i] != want[i] {
			t.Fatalf("sel[%d]=%d want %d", i, sel[i], want[i])
		}
	}
}

// TestBatchColLazyTranspose verifies columns transpose on first touch and
// reuse their storage across Reset.
func TestBatchColLazyTranspose(t *testing.T) {
	schema := batchTestSchema(t)
	rng := rand.New(rand.NewSource(9))
	rows := randBatchRows(rng, 64, false)
	b := NewBatch(schema)
	b.Reset(rows)
	c := b.Col(0)
	if c.Len() != len(rows) {
		t.Fatalf("col len %d want %d", c.Len(), len(rows))
	}
	if b.Col(0) != c {
		t.Fatal("second Col call rebuilt the vector")
	}
	b.Reset(rows[:10])
	if got := b.Col(0).Len(); got != 10 {
		t.Fatalf("after Reset col len %d want 10", got)
	}
}
