package exec

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"miso/internal/data"
	"miso/internal/logical"
	"miso/internal/storage"
)

var scannerFields = []scanField{
	{name: "id", col: 0, kind: storage.KindInt},
	{name: "f", col: 1, kind: storage.KindFloat},
	{name: "s", col: 2, kind: storage.KindString},
	{name: "b", col: 3, kind: storage.KindBool},
	{name: "si", col: 4, kind: storage.KindInt}, // string-typed source coerced to int
}

// trickyLines covers everything the fast scanner must either parse exactly
// or refuse (returning false so the line goes to the real decoder).
var trickyLines = []string{
	`{"id":1,"f":2.5,"s":"plain","b":true,"si":"42"}`,
	`{ "id" : 1 , "f" : 2.5 , "s" : "ws" , "b" : false }`,
	`{}`,
	`{"id":null,"f":null,"s":null,"b":null,"si":null}`,
	`{"unrelated":"x","id":7}`,
	`{"id":1,"id":2}`,                       // duplicate key: last wins
	`{"s":"esc\"aped"}`,                     // escape: fallback
	`{"s":"uni\u00e9code"}`,                 // unicode escape: fallback
	`{"s":"caf\u00e9","id":3}`,              // escape later in line
	"{\"s\":\"caf\u00e9\"}",                 // raw multibyte UTF-8: fast path
	"{\"s\":\"bad\xff\xfe\"}",               // invalid UTF-8: fallback (U+FFFD substitution)
	`{"nested":{"a":1},"id":5}`,             // nested object: fallback
	`{"arr":[1,2,3],"id":5}`,                // array: fallback
	`{"id":9223372036854775807}`,            // max int64
	`{"id":9223372036854775808}`,            // overflows int64: float path
	`{"id":12.9}`,                           // float into int column
	`{"id":1e3,"f":1e3}`,                    // exponents
	`{"f":-0.5,"id":-7}`,                    // negatives
	`{"id":01}`,                             // invalid JSON number: malformed line
	`{"id":+1}`,                             // invalid number
	`{"id":.5}`,                             // invalid number
	`{"id":1.}`,                             // invalid number
	`{"f":1.25e-2}`,                         // frac + exp
	`{"b":"true","s":123,"si":77}`,          // mistyped fields
	`{"si":"not a number"}`,                 // failed string→int coercion
	`{"id":1}trailing garbage`,              // bytes after object: ignored
	`{"id":1} `,                             // trailing space
	`  {"id":1}`,                            // leading space
	`not json at all`,                       // malformed: skipped
	`{"id":`,                                // truncated
	`{"id"}`,                                // missing value
	`{"id":1,}`,                             // trailing comma: malformed
	`{"s":"unterminated`,                    // unterminated string
	`{"k\u0065y":1,"id":2}`,                 // escaped key: fallback
	`{"s":""}`,                              // empty string
	`{"f":0,"id":0}`,                        // zeros
	"{\"s\":\"tab\tchar\"}",                 // control char in string: fallback
	`[1,2,3]`,                               // non-object root: malformed for extract
	`{"b":true,"extra":false,"id":3,"f":7}`, // wanted fields after skipped ones
	// A deferred float's pending literal under duplicate keys (last wins):
	// the later occurrence must cancel or replace what the first one left.
	`{"f":1.5,"f":null}`,
	`{"f":1.5,"f":"x"}`,
	`{"f":1.5,"f":2e3}`,
	`{"f":1.5,"f":2.5,"id":1}`,
	`{"f":1.5,"f":true}`,
	// The learned key layout: a line in the layout of the line before it,
	// then one whose order differs, keys that prefix one another, and
	// whitespace inside the key token.
	`{"id":1,"f":2.5,"s":"a"}`,
	`{"id":2,"f":3.5,"s":"b"}`,
	`{"s":"c","f":4.5,"id":3}`,
	`{"idx":9,"id":4,"fx":1.5,"f":5.5}`,
	`{"id":5,"idx":9,"f":6.5,"fx":1.5}`,
	`{"id" :6,"f"  :7.5}`,
	`{"id" :7,"f"  :8.5}`,
	`{"id":8,"f":9.5}`,
	// The deferral rule's edges: 299 bytes defers, 300 converts as scanned;
	// an exponent is never deferred (1e999 is ErrRange: NULL, one byte).
	`{"f":` + strings.Repeat("9", 299) + `,"id":` + strings.Repeat("9", 299) + `}`,
	`{"f":` + strings.Repeat("9", 300) + `,"id":` + strings.Repeat("9", 300) + `}`,
	`{"f":` + strings.Repeat("9", 400) + `}`,
	`{"f":1e999,"id":1e999}`,
	`{"f":-0.0,"id":-0.0}`,
	`{"f":"3.5","id":"3.5"}`, // a float column's string: coerced as scanned
	`{"f":0.` + strings.Repeat("0", 290) + `1}`,
}

// pipelineScanner scans one line at a time the way a pass's worker does:
// into a row of a scan buffer whose key hints the lines before taught it,
// with every float field deferred, finished as the pass finishes a
// survivor.
type pipelineScanner struct {
	ls  *lineScan
	buf *scanBuf
}

func newPipelineScanner(t testing.TB, fields []scanField) *pipelineScanner {
	ls := &lineScan{node: &logical.Node{Kind: logical.KindExtract}, pool: new(scanBufs)}
	for _, f := range fields {
		ls.width = max(ls.width, f.col+1)
		if f.kind == storage.KindFloat {
			ls.pendCols = append(ls.pendCols, f.col)
			f.pend = len(ls.pendCols)
		}
		ls.fields = append(ls.fields, f)
	}
	buf, err := ls.borrowBuf(&Env{}, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return &pipelineScanner{ls: ls, buf: buf}
}

// scan returns the finished row, the encoded size fill would have counted
// for it — taken while deferred floats are still placeholders — and whether
// the fast path accepted the line. The row is valid until the next scan.
func (p *pipelineScanner) scan(line string) (storage.Row, int64, bool) {
	row := p.buf.rows[0]
	clear(row)
	clear(p.buf.pend)
	if !fastScanLine(line, p.ls.fields, &p.buf.hints, row, p.buf.pend) {
		return nil, 0, false
	}
	size := row.EncodedSize()
	p.ls.finish(p.buf, []int32{0})
	return row, size, true
}

// sameRow is bit equality: -0.0 is not 0.0.
func sameRow(a, b storage.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].I != b[i].I || a[i].S != b[i].S || math.Float64bits(a[i].F) != math.Float64bits(b[i].F) {
			return false
		}
	}
	return true
}

// check is the scanner's equivalence property for one line: whenever the
// fast path accepts, the decoder accepts too, and row and encoded size are
// the decoder's exactly. The line is scanned twice, under the hints the
// previous line left and under its own. It reports whether the fast path
// accepted.
func (p *pipelineScanner) check(t testing.TB, line string) bool {
	t.Helper()
	slow := make(storage.Row, p.ls.width)
	slowOK := fallbackScanLine(line, p.ls.fields, slow)
	accepted := false
	for _, hints := range []string{"the previous line's", "its own"} {
		row, size, ok := p.scan(line)
		if !ok {
			continue
		}
		accepted = true
		if !slowOK {
			t.Errorf("line %q (hints: %s): fast path accepted a line the decoder rejects", line, hints)
		} else if !sameRow(row, slow) || size != slow.EncodedSize() {
			t.Errorf("line %q (hints: %s):\n fast %v (%d B)\n slow %v (%d B)", line, hints, row, size, slow, slow.EncodedSize())
		}
	}
	return accepted
}

// TestFastScanMatchesFallback is the scanner's equivalence property over the
// hand-written lines, in order: each line meets the key layout the line
// before it left behind.
func TestFastScanMatchesFallback(t *testing.T) {
	p := newPipelineScanner(t, scannerFields)
	for _, line := range trickyLines {
		p.check(t, line)
	}
}

// TestFastScanMatchesFallbackOnGeneratedLogs runs the same equivalence over
// every line of the real generated logs — the data the fast path exists
// for — and requires a high fast-path acceptance rate there.
func TestFastScanMatchesFallbackOnGeneratedLogs(t *testing.T) {
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	for _, logName := range []string{data.TweetsLog, data.CheckinsLog, data.LandmarksLog} {
		log, err := cat.Log(logName)
		if err != nil {
			t.Fatalf("log %s: %v", logName, err)
		}
		fields := make([]scanField, log.FieldTypes.Len())
		for i, c := range log.FieldTypes.Columns {
			fields[i] = scanField{name: c.Name, col: i, kind: c.Type}
		}
		p := newPipelineScanner(t, fields)
		accepted := 0
		for _, line := range log.Lines {
			if p.check(t, line) {
				accepted++
			}
		}
		if frac := float64(accepted) / float64(len(log.Lines)); frac < 0.99 {
			t.Errorf("%s: fast path accepted only %.1f%% of generated lines", logName, frac*100)
		}
	}
}

// TestFastScanFuzzEquivalence throws seeded random mutations of valid JSON
// at both paths; acceptance implies exact agreement.
func TestFastScanFuzzEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	alphabet := []byte(`{}[]":,.\0123456789eE+-truefalsenull aé` + "\x00\xff\t")
	p := newPipelineScanner(t, scannerFields)
	for i := 0; i < 5000; i++ {
		n := 1 + rng.Intn(60)
		buf := make([]byte, n)
		for j := range buf {
			buf[j] = alphabet[rng.Intn(len(alphabet))]
		}
		line := string(buf)
		if i%2 == 1 {
			// Random soup rarely spells a long number: every other line is a
			// well-formed object around one random literal, aimed at the
			// scanner's own integer accumulation and its 18-digit boundary.
			lit := fuzzNumber(rng)
			line = `{"id":` + lit + `,"f":` + lit + `,"s":` + lit + `,"si":` + lit + `}`
		}
		p.check(t, line)
	}
}

// FuzzScanLine is the same property under the native fuzzer: line is checked
// by a scanner that has just learned prev's key layout. The seeds are the
// hand-written lines, each after the one before it.
func FuzzScanLine(f *testing.F) {
	for i, line := range trickyLines {
		f.Add(trickyLines[max(i-1, 0)], line)
	}
	f.Fuzz(func(t *testing.T, prev, line string) {
		p := newPipelineScanner(t, scannerFields)
		p.scan(prev)
		p.check(t, line)
	})
}

// TestDeferrableLiteralsAlwaysParse is the rule the deferral rests on: a
// JSON number with no exponent and fewer than maxDeferredLen bytes is a
// float64 to strconv, never an error — so its column holds a float, of
// encoded size 8, before anyone has looked at the digits.
func TestDeferrableLiteralsAlwaysParse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	digits := func(b []byte, n int) []byte {
		for ; n > 0; n-- {
			b = append(b, byte('0'+rng.Intn(10)))
		}
		return b
	}
	for i := 0; i < 10000; i++ {
		var b []byte
		if rng.Intn(2) == 0 {
			b = append(b, '-')
		}
		// Half the literals fill the rule's budget to the byte; a quarter
		// are all integer digits, the largest magnitudes it lets through.
		room := maxDeferredLen - 1 - len(b)
		if rng.Intn(2) == 0 {
			room = 1 + rng.Intn(room)
		}
		whole := 1 + rng.Intn(room)
		if rng.Intn(4) == 0 {
			whole = room
		}
		if rng.Intn(8) == 0 {
			b, whole = append(b, '0'), 1 // the one integer part that may start with a zero
		} else {
			b = digits(append(b, byte('1'+rng.Intn(9))), whole-1)
		}
		if frac := room - whole - 1; frac > 0 {
			b = digits(append(b, '.'), frac)
		}
		lit := string(b)
		end, _, class, ok := scanJSONNumber(lit, 0)
		if !ok || end != len(lit) || class == numExp || len(lit) >= maxDeferredLen {
			t.Fatalf("generator wrote %q, which rule (a) does not cover", lit)
		}
		if _, err := strconv.ParseFloat(lit, 64); err != nil {
			t.Fatalf("ParseFloat(%q): %v", lit, err)
		}
	}
}

// fuzzNumber draws a number literal: up to 22 digits, sometimes with a
// leading zero (invalid JSON unless alone), a fraction or an exponent.
func fuzzNumber(rng *rand.Rand) string {
	var b []byte
	if rng.Intn(2) == 0 {
		b = append(b, '-')
	}
	for d := 1 + rng.Intn(22); d > 0; d-- {
		b = append(b, byte('0'+rng.Intn(10)))
	}
	if rng.Intn(6) == 0 {
		b = append(b, '.', byte('0'+rng.Intn(10)))
	}
	if rng.Intn(6) == 0 {
		b = append(b, 'e', byte('0'+rng.Intn(10)))
	}
	return string(b)
}

// TestScannedNumbersMatchStrconv pins the scanner's integer fast path — a
// literal of at most 18 digits bound for an int column is accumulated by
// the loop that validates it — to what strconv makes of the same literal,
// on the boundaries where the two could part: signed zero, the int64
// limits, 18/19/20 digits, and literals that only look integral.
func TestScannedNumbersMatchStrconv(t *testing.T) {
	fields := []scanField{
		{name: "i", col: 0, kind: storage.KindInt},
		{name: "f", col: 1, kind: storage.KindFloat},
	}
	p := newPipelineScanner(t, fields)
	for _, lit := range []string{
		"0", "-0", "7", "-7", "10", "-10",
		"999999999999999999", "-999999999999999999", // 18 digits: fast path
		"1000000000000000000", "-1000000000000000000", // 19 digits: strconv
		"9223372036854775807", "-9223372036854775808", // int64 limits
		"9223372036854775808", "-9223372036854775809", // one past them: float path
		"10000000000000000000", "99999999999999999999", // 20 digits
		"123456789012345678901234567890",
		"1e3", "1E3", "1e+3", "1e-3", "-1e3", "1.0", "-1.0", "0.0", "-0.0", "12.9", "-12.9", "1.5e300", "1e400",
	} {
		line := `{"i":` + lit + `,"f":` + lit + `}`
		row, _, ok := p.scan(line)
		if !ok {
			t.Errorf("%s: the fast path refused a valid number", lit)
			continue
		}
		wantI, wantF := storage.Null, storage.Null
		f, ferr := strconv.ParseFloat(lit, 64)
		if i, err := strconv.ParseInt(lit, 10, 64); err == nil {
			wantI = storage.IntValue(i)
		} else if ferr == nil {
			wantI = storage.IntValue(int64(f))
		}
		if ferr == nil {
			wantF = storage.FloatValue(f)
		}
		if row[0] != wantI {
			t.Errorf("%s into an int column: scanned %#v, strconv gives %#v", lit, row[0], wantI)
		}
		if row[1].Kind != wantF.Kind || math.Float64bits(row[1].F) != math.Float64bits(wantF.F) {
			t.Errorf("%s into a float column: scanned %#v, strconv gives %#v", lit, row[1], wantF)
		}
		slow := make(storage.Row, len(fields))
		if !fallbackScanLine(line, fields, slow) || !sameRow(row, slow) {
			t.Errorf("%s: fast %v, decoder %v", lit, row, slow)
		}
	}
}

// TestHashKeysZeroAlloc is the allocs/op guard for the rewritten join-key
// hashing: folding key columns through Value.HashInto must not allocate.
func TestHashKeysZeroAlloc(t *testing.T) {
	row := storage.Row{
		storage.IntValue(12345),
		storage.StringValue("restaurant"),
		storage.FloatValue(37.775),
		storage.BoolValue(true),
	}
	idx := []int{0, 1, 2, 3}
	var h uint64
	allocs := testing.AllocsPerRun(1000, func() {
		h, _ = hashKeys(row, idx)
	})
	if allocs != 0 {
		t.Fatalf("hashKeys allocated %.1f objects/op, want 0", allocs)
	}
	if h == 0 {
		t.Fatalf("hashKeys returned 0 for non-null keys")
	}
	// NULL keys report no hash.
	if _, ok := hashKeys(storage.Row{storage.Null}, []int{0}); ok {
		t.Fatalf("NULL key hashed")
	}
}

// TestHashKeysMatchesValueHash pins hashKeys to the documented HashInto
// chain so the partitioned join's bucketing stays stable.
func TestHashKeysMatchesValueHash(t *testing.T) {
	v := storage.StringValue("abc")
	got, ok := hashKeys(storage.Row{v}, []int{0})
	if !ok || got != v.Hash() {
		t.Fatalf("single-key hash %x, want Value.Hash %x", got, v.Hash())
	}
}

// TestDistinctNullVersusLiteralNullString pins the engines' agreement on
// the edge where a string column holds both a real NULL and the literal
// string "NULL": both engines key distinct rows the same way, so their
// outputs must match row for row at any parallelism (folded from the PR 5
// review scratch test, strengthened from a row-count check to full output
// equality).
func TestDistinctNullVersusLiteralNullString(t *testing.T) {
	schema, err := storage.NewSchema(storage.Column{Name: "s", Type: storage.KindString})
	if err != nil {
		t.Fatal(err)
	}
	in := storage.NewTable("in", schema)
	in.MustAppend(storage.Row{storage.Null})
	in.MustAppend(storage.Row{storage.StringValue("NULL")})
	in.MustAppend(storage.Row{storage.StringValue("null")})
	in.MustAppend(storage.Row{storage.Null})
	in.MustAppend(storage.Row{storage.StringValue("NULL")})

	scan := logical.NewNode(logical.Node{Kind: logical.KindScan, LogName: "in"}, nil)
	n := logical.NewNode(logical.Node{Kind: logical.KindDistinct, Children: []*logical.Node{scan}}, schema)
	serialOut, err := runDistinct(n, in)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		env := &Env{Workers: workers}
		morselOut, err := runDistinctMorsel(n, env, in)
		if err != nil {
			t.Fatal(err)
		}
		if len(morselOut.Rows) != len(serialOut.Rows) {
			t.Fatalf("workers=%d: serial=%d rows, morsel=%d rows", workers, len(serialOut.Rows), len(morselOut.Rows))
		}
		for i := range serialOut.Rows {
			if !reflect.DeepEqual(serialOut.Rows[i], morselOut.Rows[i]) {
				t.Fatalf("workers=%d row %d: serial=%v morsel=%v", workers, i, serialOut.Rows[i], morselOut.Rows[i])
			}
		}
	}
}
