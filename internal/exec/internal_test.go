package exec

import (
	"math"
	"math/rand"
	"reflect"
	"strconv"
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
}

// TestFastScanMatchesFallback is the scanner's equivalence property: for
// every line, whenever the fast path accepts, its row must equal the
// fallback decoder's exactly; and the fast path must accept only when the
// fallback also accepts.
func TestFastScanMatchesFallback(t *testing.T) {
	for _, line := range trickyLines {
		fastRow := make(storage.Row, len(scannerFields))
		slowRow := make(storage.Row, len(scannerFields))
		fastOK := fastScanLine(line, scannerFields, fastRow)
		slowOK := fallbackScanLine(line, scannerFields, slowRow)
		if fastOK && !slowOK {
			t.Errorf("line %q: fast path accepted a line the decoder rejects", line)
			continue
		}
		if fastOK && !reflect.DeepEqual(fastRow, slowRow) {
			t.Errorf("line %q:\n fast %v\n slow %v", line, fastRow, slowRow)
		}
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
		accepted := 0
		for _, line := range log.Lines {
			fastRow := make(storage.Row, len(fields))
			slowRow := make(storage.Row, len(fields))
			fastOK := fastScanLine(line, fields, fastRow)
			slowOK := fallbackScanLine(line, fields, slowRow)
			if fastOK {
				accepted++
				if !slowOK || !reflect.DeepEqual(fastRow, slowRow) {
					t.Fatalf("%s line %q: fast/slow divergence", logName, line)
				}
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
		fastRow := make(storage.Row, len(scannerFields))
		slowRow := make(storage.Row, len(scannerFields))
		if fastScanLine(line, scannerFields, fastRow) {
			if !fallbackScanLine(line, scannerFields, slowRow) {
				t.Fatalf("fuzz line %q: fast accepted, decoder rejected", line)
			}
			if !reflect.DeepEqual(fastRow, slowRow) {
				t.Fatalf("fuzz line %q:\n fast %v\n slow %v", line, fastRow, slowRow)
			}
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
		row := make(storage.Row, len(fields))
		if !fastScanLine(line, fields, row) {
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
		if !fallbackScanLine(line, fields, slow) || !reflect.DeepEqual(row, slow) {
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

	n := &logical.Node{
		Kind:     logical.KindDistinct,
		Children: []*logical.Node{{Kind: logical.KindScan, LogName: "in"}},
	}
	n.SetSchema(schema)
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
