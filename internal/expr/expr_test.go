package expr

import (
	"testing"
	"testing/quick"

	"miso/internal/storage"
)

func col(n string) Expr             { return &ColRef{Name: n} }
func ci(i int64) Expr               { return &Const{Val: storage.IntValue(i)} }
func cs(s string) Expr              { return &Const{Val: storage.StringValue(s)} }
func bin(op string, l, r Expr) Expr { return &BinOp{Op: op, L: l, R: r} }

var testSchema = storage.MustSchema(
	storage.Column{Name: "a", Type: storage.KindInt},
	storage.Column{Name: "b", Type: storage.KindInt},
	storage.Column{Name: "s", Type: storage.KindString},
	storage.Column{Name: "f", Type: storage.KindFloat},
)

func row(a, b int64, s string, f float64) storage.Row {
	return storage.Row{storage.IntValue(a), storage.IntValue(b), storage.StringValue(s), storage.FloatValue(f)}
}

func eval(t *testing.T, e Expr, r storage.Row) storage.Value {
	t.Helper()
	c, err := Compile(e, testSchema)
	if err != nil {
		t.Fatalf("compile %s: %v", e.Canon(), err)
	}
	return c(r)
}

func TestCanonCommutativity(t *testing.T) {
	pairs := [][2]Expr{
		{bin("=", col("a"), ci(1)), bin("=", ci(1), col("a"))},
		{bin("AND", col("a"), col("b")), bin("AND", col("b"), col("a"))},
		{bin("+", col("a"), col("b")), bin("+", col("b"), col("a"))},
		{bin(">", col("a"), col("b")), bin("<", col("b"), col("a"))},
		{bin(">=", col("a"), col("b")), bin("<=", col("b"), col("a"))},
	}
	for _, p := range pairs {
		if p[0].Canon() != p[1].Canon() {
			t.Errorf("canon mismatch: %q vs %q", p[0].Canon(), p[1].Canon())
		}
	}
	// Non-commutative ops must NOT collide.
	if bin("-", col("a"), col("b")).Canon() == bin("-", col("b"), col("a")).Canon() {
		t.Error("a-b and b-a collided")
	}
	if bin("LIKE", col("s"), cs("x")).Canon() == bin("LIKE", cs("x"), col("s")).Canon() {
		t.Error("LIKE canon commuted")
	}
}

func TestInCanonSortsItems(t *testing.T) {
	a := &In{E: col("a"), Items: []Expr{ci(2), ci(1)}}
	b := &In{E: col("a"), Items: []Expr{ci(1), ci(2)}}
	if a.Canon() != b.Canon() {
		t.Errorf("IN canon order-sensitive: %q vs %q", a.Canon(), b.Canon())
	}
}

func TestConjunctsRoundtrip(t *testing.T) {
	e := bin("AND", bin("AND", bin("=", col("a"), ci(1)), bin("<", col("b"), ci(5))),
		bin("LIKE", col("s"), cs("x%")))
	cj := Conjuncts(e)
	if len(cj) != 3 {
		t.Fatalf("conjuncts = %d", len(cj))
	}
	back := AndAll(cj)
	if back.Canon() != e.Canon() {
		t.Errorf("AndAll(Conjuncts(e)) = %q, want %q", back.Canon(), e.Canon())
	}
	if AndAll(nil) != nil {
		t.Error("AndAll(nil) should be nil")
	}
}

func TestColumns(t *testing.T) {
	e := bin("AND", bin("=", col("a"), ci(1)),
		&Func{Name: "SENTIMENT", Args: []Expr{col("s")}})
	cols := Columns(e)
	if len(cols) != 2 || cols[0] != "a" || cols[1] != "s" {
		t.Errorf("Columns = %v", cols)
	}
}

func TestUsesUDF(t *testing.T) {
	if UsesUDF(bin("=", col("a"), ci(1))) {
		t.Error("plain comparison flagged as UDF")
	}
	if !UsesUDF(&Func{Name: "SENTIMENT", Args: []Expr{col("s")}}) {
		t.Error("SENTIMENT not flagged")
	}
	if UsesUDF(&Func{Name: "UPPER", Args: []Expr{col("s")}}) {
		t.Error("builtin UPPER flagged as UDF")
	}
	// Nested.
	nested := bin("AND", ci(1), &Not{E: &Func{Name: "IS_WEEKEND", Args: []Expr{col("a")}}})
	if !UsesUDF(nested) {
		t.Error("nested UDF not found")
	}
}

func TestEvalComparisons(t *testing.T) {
	r := row(3, 5, "hello", 2.5)
	cases := []struct {
		e    Expr
		want bool
	}{
		{bin("=", col("a"), ci(3)), true},
		{bin("!=", col("a"), ci(3)), false},
		{bin("<", col("a"), col("b")), true},
		{bin(">=", col("b"), ci(5)), true},
		{bin("LIKE", col("s"), cs("he%")), true},
		{bin("LIKE", col("s"), cs("%lo")), true},
		{bin("LIKE", col("s"), cs("h_llo")), true},
		{bin("LIKE", col("s"), cs("x%")), false},
		{&In{E: col("a"), Items: []Expr{ci(1), ci(3)}}, true},
		{&In{E: col("a"), Items: []Expr{ci(1)}, Neg: true}, true},
		{&IsNull{E: col("a")}, false},
		{&IsNull{E: col("a"), Neg: true}, true},
		{&Not{E: bin("=", col("a"), ci(3))}, false},
	}
	for _, c := range cases {
		got := eval(t, c.e, r)
		if got.Kind != storage.KindBool || got.Bool() != c.want {
			t.Errorf("%s = %v, want %v", c.e.Canon(), got, c.want)
		}
	}
}

func TestEvalNullSemantics(t *testing.T) {
	r := storage.Row{storage.Null, storage.IntValue(1), storage.Null, storage.FloatValue(0)}
	// NULL = 1 is NULL.
	if got := eval(t, bin("=", col("a"), ci(1)), r); !got.IsNull() {
		t.Errorf("NULL = 1 -> %v", got)
	}
	// NULL AND FALSE is FALSE (three-valued logic short circuit).
	f := bin("=", col("b"), ci(2)) // false
	if got := eval(t, bin("AND", &IsNull{E: col("b")}, f), r); got.IsNull() || got.Bool() {
		t.Errorf("false AND x -> %v", got)
	}
	// NULL OR TRUE is TRUE.
	tr := bin("=", col("b"), ci(1))
	nullCmp := bin("=", col("a"), ci(1))
	if got := eval(t, bin("OR", nullCmp, tr), r); !got.Bool() {
		t.Errorf("NULL OR true -> %v", got)
	}
	// NULL arithmetic is NULL.
	if got := eval(t, bin("+", col("a"), ci(1)), r); !got.IsNull() {
		t.Errorf("NULL + 1 -> %v", got)
	}
}

func TestEvalArithmetic(t *testing.T) {
	r := row(7, 2, "", 1.5)
	cases := []struct {
		e    Expr
		want storage.Value
	}{
		{bin("+", col("a"), col("b")), storage.IntValue(9)},
		{bin("-", col("a"), col("b")), storage.IntValue(5)},
		{bin("*", col("a"), col("b")), storage.IntValue(14)},
		{bin("%", col("a"), col("b")), storage.IntValue(1)},
		{bin("/", col("a"), col("b")), storage.FloatValue(3.5)},
		{bin("+", col("a"), col("f")), storage.FloatValue(8.5)},
		{&Neg{E: col("a")}, storage.IntValue(-7)},
	}
	for _, c := range cases {
		got := eval(t, c.e, r)
		if !storage.Equal(got, c.want) || got.Kind != c.want.Kind {
			t.Errorf("%s = %v (%v), want %v (%v)", c.e.Canon(), got, got.Kind, c.want, c.want.Kind)
		}
	}
	// Division and modulo by zero yield NULL, not a panic.
	zero := bin("-", col("b"), col("b"))
	if got := eval(t, bin("/", col("a"), zero), r); !got.IsNull() {
		t.Errorf("x/0 -> %v", got)
	}
	if got := eval(t, bin("%", col("a"), zero), r); !got.IsNull() {
		t.Errorf("x%%0 -> %v", got)
	}
}

func TestBuiltins(t *testing.T) {
	r := row(1, 2, "Hello", 3.7)
	cases := []struct {
		name string
		args []Expr
		want storage.Value
	}{
		{"UPPER", []Expr{col("s")}, storage.StringValue("HELLO")},
		{"LOWER", []Expr{col("s")}, storage.StringValue("hello")},
		{"LENGTH", []Expr{col("s")}, storage.IntValue(5)},
		{"SUBSTR", []Expr{col("s"), ci(2), ci(3)}, storage.StringValue("ell")},
		{"ABS", []Expr{&Neg{E: col("b")}}, storage.IntValue(2)},
		{"ROUND", []Expr{col("f")}, storage.IntValue(4)},
		{"CONCAT", []Expr{col("s"), cs("!")}, storage.StringValue("Hello!")},
	}
	for _, c := range cases {
		got := eval(t, &Func{Name: c.name, Args: c.args}, r)
		if !storage.Equal(got, c.want) {
			t.Errorf("%s = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestTimeBuiltins(t *testing.T) {
	// 2013-01-05 was a Saturday.
	sat := int64(1357344000)
	r := storage.Row{storage.IntValue(sat), storage.IntValue(0), storage.Null, storage.Null}
	if got := eval(t, &Func{Name: "YEAR", Args: []Expr{col("a")}}, r); got.I != 2013 {
		t.Errorf("YEAR = %v", got)
	}
	if got := eval(t, &Func{Name: "MONTH", Args: []Expr{col("a")}}, r); got.I != 1 {
		t.Errorf("MONTH = %v", got)
	}
	if got := eval(t, &Func{Name: "IS_WEEKEND", Args: []Expr{col("a")}}, r); !got.Bool() {
		t.Errorf("IS_WEEKEND(saturday) = %v", got)
	}
}

func TestUDFImplementations(t *testing.T) {
	r := storage.Row{storage.IntValue(0), storage.IntValue(0),
		storage.StringValue("amazing pizza but terrible line"), storage.Null}
	got := eval(t, &Func{Name: "SENTIMENT", Args: []Expr{col("s")}}, r)
	if got.F != 0 { // amazing(+1) terrible(-1)
		t.Errorf("SENTIMENT = %v", got)
	}
	got = eval(t, &Func{Name: "TOPIC", Args: []Expr{col("s")}}, r)
	if got.S != "dining" {
		t.Errorf("TOPIC = %v", got)
	}
	inf := eval(t, &Func{Name: "INFLUENCE", Args: []Expr{ci(10), ci(2000)}}, r)
	if inf.F != 102 {
		t.Errorf("INFLUENCE = %v", inf)
	}
	cell := eval(t, &Func{Name: "GEO_CELL", Args: []Expr{&Const{Val: storage.FloatValue(37.7)}, &Const{Val: storage.FloatValue(-122.4)}}}, r)
	if cell.S != "cell_37_122" {
		t.Errorf("GEO_CELL = %v", cell)
	}
}

func TestTypeOf(t *testing.T) {
	cases := []struct {
		e    Expr
		want storage.Kind
	}{
		{col("a"), storage.KindInt},
		{col("s"), storage.KindString},
		{bin("=", col("a"), ci(1)), storage.KindBool},
		{bin("+", col("a"), col("b")), storage.KindInt},
		{bin("+", col("a"), col("f")), storage.KindFloat},
		{bin("/", col("a"), col("b")), storage.KindFloat},
		{&Func{Name: "LENGTH", Args: []Expr{col("s")}}, storage.KindInt},
		{&Func{Name: "SENTIMENT", Args: []Expr{col("s")}}, storage.KindFloat},
	}
	for _, c := range cases {
		got, err := TypeOf(c.e, testSchema)
		if err != nil {
			t.Fatalf("TypeOf(%s): %v", c.e.Canon(), err)
		}
		if got != c.want {
			t.Errorf("TypeOf(%s) = %v, want %v", c.e.Canon(), got, c.want)
		}
	}
	if _, err := TypeOf(col("nope"), testSchema); err == nil {
		t.Error("unknown column typed successfully")
	}
	if _, err := TypeOf(&Func{Name: "NOPE"}, testSchema); err == nil {
		t.Error("unknown function typed successfully")
	}
	if _, err := TypeOf(&Func{Name: "UPPER"}, testSchema); err == nil {
		t.Error("arity error not caught")
	}
}

// TestLikeMatchesReferenceImpl cross-checks the LIKE matcher against a
// simple recursive reference implementation on random inputs.
func TestLikeMatchesReferenceImpl(t *testing.T) {
	var ref func(s, p string) bool
	ref = func(s, p string) bool {
		if p == "" {
			return s == ""
		}
		switch p[0] {
		case '%':
			for i := 0; i <= len(s); i++ {
				if ref(s[i:], p[1:]) {
					return true
				}
			}
			return false
		case '_':
			return s != "" && ref(s[1:], p[1:])
		default:
			return s != "" && s[0] == p[0] && ref(s[1:], p[1:])
		}
	}
	alphabet := []byte("ab%_")
	gen := func(seed uint64, n int) string {
		out := make([]byte, n)
		for i := range out {
			seed = seed*6364136223846793005 + 1442695040888963407
			out[i] = alphabet[seed>>60&3]
		}
		return string(out)
	}
	prop := func(seed uint64) bool {
		s := gen(seed, int(seed%6))
		// Strings contain only a/b; patterns may contain wildcards.
		s = replaceAll(s, '%', 'a')
		s = replaceAll(s, '_', 'b')
		p := gen(seed>>7, int(seed>>3%6))
		return likeMatch(s, p) == ref(s, p)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func replaceAll(s string, old, new byte) string {
	b := []byte(s)
	for i := range b {
		if b[i] == old {
			b[i] = new
		}
	}
	return string(b)
}

func TestRegisterAndLookup(t *testing.T) {
	if _, ok := LookupFunc("UPPER"); !ok {
		t.Error("UPPER missing")
	}
	if _, ok := LookupFunc("SENTIMENT"); !ok {
		t.Error("SENTIMENT missing")
	}
	if IsAggregateName("COUNT") != true || IsAggregateName("UPPER") != false {
		t.Error("IsAggregateName wrong")
	}
}
