package storage

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestValueConstructorsAndKinds(t *testing.T) {
	cases := []struct {
		v    Value
		kind Kind
		str  string
	}{
		{Null, KindNull, "NULL"},
		{IntValue(42), KindInt, "42"},
		{IntValue(-7), KindInt, "-7"},
		{FloatValue(2.5), KindFloat, "2.5"},
		{StringValue("hi"), KindString, "hi"},
		{BoolValue(true), KindBool, "true"},
		{BoolValue(false), KindBool, "false"},
	}
	for _, c := range cases {
		if c.v.Kind != c.kind {
			t.Errorf("%v: kind %v, want %v", c.v, c.v.Kind, c.kind)
		}
		if got := c.v.String(); got != c.str {
			t.Errorf("String() = %q, want %q", got, c.str)
		}
	}
}

func TestValueCoercions(t *testing.T) {
	if f, ok := IntValue(3).AsFloat(); !ok || f != 3 {
		t.Errorf("int->float = %v %v", f, ok)
	}
	if i, ok := FloatValue(3.9).AsInt(); !ok || i != 3 {
		t.Errorf("float->int = %v %v", i, ok)
	}
	if i, ok := StringValue("17").AsInt(); !ok || i != 17 {
		t.Errorf("string->int = %v %v", i, ok)
	}
	if f, ok := StringValue("2.5").AsFloat(); !ok || f != 2.5 {
		t.Errorf("string->float = %v %v", f, ok)
	}
	if _, ok := StringValue("abc").AsInt(); ok {
		t.Error("non-numeric string coerced to int")
	}
	if _, ok := Null.AsFloat(); ok {
		t.Error("NULL coerced to float")
	}
}

func TestValueBool(t *testing.T) {
	truthy := []Value{BoolValue(true), IntValue(1), FloatValue(0.5), StringValue("x")}
	falsy := []Value{BoolValue(false), IntValue(0), FloatValue(0), StringValue(""), Null}
	for _, v := range truthy {
		if !v.Bool() {
			t.Errorf("%v should be truthy", v)
		}
	}
	for _, v := range falsy {
		if v.Bool() {
			t.Errorf("%v should be falsy", v)
		}
	}
}

func TestCompareSemantics(t *testing.T) {
	if Compare(IntValue(1), FloatValue(1.0)) != 0 {
		t.Error("1 != 1.0")
	}
	if Compare(IntValue(1), IntValue(2)) >= 0 {
		t.Error("1 >= 2")
	}
	if Compare(StringValue("a"), StringValue("b")) >= 0 {
		t.Error("a >= b")
	}
	if Compare(Null, IntValue(0)) >= 0 {
		t.Error("NULL should sort first")
	}
	if Compare(Null, Null) != 0 {
		t.Error("NULL != NULL under Compare")
	}
}

// TestCompareTotalOrder checks antisymmetry and transitivity over random
// values: Compare must induce a total order or sorts would be unstable.
func TestCompareTotalOrder(t *testing.T) {
	gen := func(seed int64) Value {
		switch seed % 4 {
		case 0:
			return IntValue(seed % 100)
		case 1:
			return FloatValue(float64(seed%100) / 3)
		case 2:
			return StringValue(string(rune('a' + seed%26)))
		default:
			return Null
		}
	}
	antisym := func(a, b int64) bool {
		x, y := gen(a), gen(b)
		return Compare(x, y) == -Compare(y, x)
	}
	if err := quick.Check(antisym, nil); err != nil {
		t.Errorf("antisymmetry: %v", err)
	}
	trans := func(a, b, c int64) bool {
		x, y, z := gen(a), gen(b), gen(c)
		if Compare(x, y) <= 0 && Compare(y, z) <= 0 {
			return Compare(x, z) <= 0
		}
		return true
	}
	if err := quick.Check(trans, nil); err != nil {
		t.Errorf("transitivity: %v", err)
	}
}

// TestHashEqualConsistency: values equal under Compare must hash equal
// (numerically equal int/float included), else hash joins lose matches.
func TestHashEqualConsistency(t *testing.T) {
	pairs := [][2]Value{
		{IntValue(7), FloatValue(7.0)},
		{IntValue(0), BoolValue(false)},
		{StringValue("x"), StringValue("x")},
	}
	for _, p := range pairs {
		if Compare(p[0], p[1]) == 0 && p[0].Hash() != p[1].Hash() {
			t.Errorf("%v and %v equal but hash differently", p[0], p[1])
		}
	}
	prop := func(n int64) bool {
		return IntValue(n).Hash() == FloatValue(float64(n)).Hash() ||
			float64(n) != math.Trunc(float64(n))
	}
	cfg := &quick.Config{MaxCount: 200}
	if err := quick.Check(prop, cfg); err != nil {
		t.Errorf("int/float hash: %v", err)
	}
}

func TestEncodedSize(t *testing.T) {
	if Null.EncodedSize() != 1 {
		t.Error("null size")
	}
	if IntValue(1).EncodedSize() != 8 {
		t.Error("int size")
	}
	if StringValue("abcd").EncodedSize() != 6 {
		t.Error("string size = len+2")
	}
}

func TestSchemaValidation(t *testing.T) {
	if _, err := NewSchema(Column{Name: "a", Type: KindInt}, Column{Name: "a", Type: KindInt}); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := NewSchema(Column{Name: "", Type: KindInt}); err == nil {
		t.Error("empty column name accepted")
	}
	s := MustSchema(Column{Name: "a", Type: KindInt}, Column{Name: "b", Type: KindString})
	if s.Index("b") != 1 || s.Index("z") != -1 {
		t.Error("Index broken")
	}
	if !s.Has("a") || s.Has("c") {
		t.Error("Has broken")
	}
	if got := s.String(); got != "(a int, b string)" {
		t.Errorf("String() = %q", got)
	}
}

func TestSchemaConcatRenamesCollisions(t *testing.T) {
	l := MustSchema(Column{Name: "id", Type: KindInt})
	r := MustSchema(Column{Name: "id", Type: KindInt}, Column{Name: "x", Type: KindInt})
	c, err := l.Concat(r, "r_")
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 3 {
		t.Fatalf("concat len = %d", c.Len())
	}
	if !c.Has("r_id") {
		t.Errorf("collision not renamed: %s", c)
	}
}

func TestTableAppendAndBytes(t *testing.T) {
	s := MustSchema(Column{Name: "a", Type: KindInt}, Column{Name: "s", Type: KindString})
	tb := NewTable("t", s)
	if err := tb.Append(Row{IntValue(1)}); err == nil {
		t.Error("arity mismatch accepted")
	}
	tb.MustAppend(Row{IntValue(1), StringValue("xy")})
	tb.MustAppend(Row{IntValue(2), StringValue("z")})
	if tb.NumRows() != 2 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	want := int64(8+4) + int64(8+3)
	if tb.RawBytes() != want {
		t.Errorf("RawBytes = %d, want %d", tb.RawBytes(), want)
	}
	if tb.LogicalBytes() != want {
		t.Errorf("LogicalBytes with SF=0 should equal RawBytes")
	}
	tb.ScaleFactor = 10
	if tb.LogicalBytes() != want*10 {
		t.Errorf("LogicalBytes = %d, want %d", tb.LogicalBytes(), want*10)
	}
	if tb.AvgRowBytes() != want/2 {
		t.Errorf("AvgRowBytes = %d", tb.AvgRowBytes())
	}
}

func TestTableCloneIndependent(t *testing.T) {
	s := MustSchema(Column{Name: "a", Type: KindInt})
	tb := NewTable("t", s)
	tb.MustAppend(Row{IntValue(1)})
	c := tb.Clone()
	c.MustAppend(Row{IntValue(2)})
	if tb.NumRows() != 1 || c.NumRows() != 2 {
		t.Error("clone shares row slice")
	}
}

func TestLogFileAccounting(t *testing.T) {
	l := NewLogFile("logx", MustSchema(Column{Name: "f", Type: KindInt}))
	l.AppendLine(`{"f":1}`)
	l.AppendLine(`{"f":22}`)
	if l.NumLines() != 2 {
		t.Fatalf("lines = %d", l.NumLines())
	}
	want := int64(len(`{"f":1}`) + 1 + len(`{"f":22}`) + 1)
	if l.RawBytes() != want {
		t.Errorf("RawBytes = %d, want %d", l.RawBytes(), want)
	}
	l.ScaleFactor = 1000
	if l.LogicalBytes() != want*1000 {
		t.Errorf("LogicalBytes = %d", l.LogicalBytes())
	}
}

func TestCatalog(t *testing.T) {
	c := NewCatalog()
	if c.HasLog("x") {
		t.Error("empty catalog has log")
	}
	if _, err := c.Log("x"); err == nil {
		t.Error("missing log returned without error")
	}
	la := NewLogFile("a", MustSchema(Column{Name: "f", Type: KindInt}))
	la.AppendLine(`{"f":1}`)
	lb := NewLogFile("b", MustSchema(Column{Name: "f", Type: KindInt}))
	lb.AppendLine(`{"f":1}`)
	lb.AppendLine(`{"f":2}`)
	c.AddLog(lb)
	c.AddLog(la)
	names := c.LogNames()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("LogNames = %v", names)
	}
	if c.TotalLogicalBytes() != la.LogicalBytes()+lb.LogicalBytes() {
		t.Error("TotalLogicalBytes mismatch")
	}
}

// A registered log only grows: registering its name again would let views,
// statistics and plans built over the first log answer for the second.
func TestAddLogRegistersANameOnce(t *testing.T) {
	c := NewCatalog()
	first := NewLogFile("tweets", nil)
	first.AppendLine(`{"a":1}`)
	c.AddLog(first)
	defer func() {
		r := recover()
		msg, _ := r.(string)
		if !strings.Contains(msg, `"tweets"`) {
			t.Fatalf("second AddLog of tweets: recovered %v, want a panic naming the log", r)
		}
		if l, _ := c.Log("tweets"); l != first {
			t.Error("second AddLog replaced the registered log")
		}
	}()
	c.AddLog(NewLogFile("tweets", nil))
}

func TestRowEncodedSizeMatchesSum(t *testing.T) {
	r := Row{IntValue(1), StringValue("abc"), Null}
	want := IntValue(1).EncodedSize() + StringValue("abc").EncodedSize() + Null.EncodedSize()
	if r.EncodedSize() != want {
		t.Errorf("row size = %d, want %d", r.EncodedSize(), want)
	}
}

// TestLogSizesReadableBesideAppend reads a log's sizes from one goroutine
// while another appends to it, as a query's read phase estimates base sizes
// beside an append that holds the system's lock. Under -race it fails if
// the sizes are not safe beside AppendLine; every build checks that the
// sizes a reader sees only grow and end at the appended totals.
func TestLogSizesReadableBesideAppend(t *testing.T) {
	l := NewLogFile("log", nil)
	l.ScaleFactor = 10
	const n = 2000
	line := `{"k":1}`
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range n {
			l.AppendLine(line)
		}
	}()
	var lines int
	var raw, logical int64
	for reading := true; reading; {
		select {
		case <-done:
			reading = false
		default:
		}
		nl, rb, lb := l.NumLines(), l.RawBytes(), l.LogicalBytes()
		if nl < lines || rb < raw || lb < logical {
			t.Fatalf("sizes went back: %d lines, %d raw, %d logical after %d, %d, %d", nl, rb, lb, lines, raw, logical)
		}
		lines, raw, logical = nl, rb, lb
	}
	want := int64(n * (len(line) + 1))
	if l.NumLines() != n || l.RawBytes() != want || l.LogicalBytes() != 10*want {
		t.Fatalf("after %d appends: %d lines, %d raw and %d logical bytes; want %d, %d and %d",
			n, l.NumLines(), l.RawBytes(), l.LogicalBytes(), n, want, 10*want)
	}
}
