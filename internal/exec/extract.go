// Extract: morsels of raw log lines are parsed by a hand-rolled scanner for
// flat JSON objects, with a per-line fallback to the standard streaming
// decoder whenever the fast path cannot prove it would produce the exact
// same values (escapes, nested values, nonstandard numbers, invalid UTF-8).
// The fallback decodes a line exactly as the reference extract does, so the
// two outputs are byte-identical by construction. There is no Extract
// operator loop of its own: an Extract is the source stage of a fused
// pipeline (batch.go), scanning each morsel into a per-worker buffer that
// the stages above it read in place.
package exec

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"

	"miso/internal/expr"
	"miso/internal/logical"
	"miso/internal/storage"
)

// scanField is one plain (non-UDF) extract field: raw log field name, its
// output column, and the declared type to coerce to.
type scanField struct {
	name string
	col  int
	kind storage.Kind
}

// fastScanLine parses one flat JSON object into the wanted columns of row.
// It returns false — leaving row in an undefined state — whenever the line
// needs the exact fallback decoder: string escapes, control characters,
// invalid UTF-8 in a wanted string, nested objects/arrays, numbers outside
// the JSON grammar, or malformed structure. Duplicate keys are last-wins
// and bytes after the closing brace are ignored, matching the streaming
// decoder's behavior.
func fastScanLine(line string, fields []scanField, row storage.Row) bool {
	i := skipWS(line, 0)
	if i >= len(line) || line[i] != '{' {
		return false
	}
	i = skipWS(line, i+1)
	if i < len(line) && line[i] == '}' {
		return true
	}
	for {
		if i >= len(line) || line[i] != '"' {
			return false
		}
		keyStart := i + 1
		j := keyStart
		for j < len(line) && line[j] != '"' {
			if line[j] == '\\' || line[j] < 0x20 {
				return false
			}
			j++
		}
		if j >= len(line) {
			return false
		}
		key := line[keyStart:j]
		want := -1
		for fi := range fields {
			if fields[fi].name == key {
				want = fi
				break
			}
		}
		i = skipWS(line, j+1)
		if i >= len(line) || line[i] != ':' {
			return false
		}
		i = skipWS(line, i+1)
		if i >= len(line) {
			return false
		}
		switch c := line[i]; {
		case c == '"':
			vs := i + 1
			j := vs
			for j < len(line) && line[j] != '"' {
				if line[j] == '\\' || line[j] < 0x20 {
					return false
				}
				j++
			}
			if j >= len(line) {
				return false
			}
			if want >= 0 {
				val := line[vs:j]
				if !utf8.ValidString(val) {
					return false // decoder would substitute U+FFFD
				}
				row[fields[want].col] = coerceScannedString(val, fields[want].kind)
			}
			i = j + 1
		case c == 't':
			if !strings.HasPrefix(line[i:], "true") {
				return false
			}
			if want >= 0 {
				row[fields[want].col] = coerceScannedBool(true, fields[want].kind)
			}
			i += 4
		case c == 'f':
			if !strings.HasPrefix(line[i:], "false") {
				return false
			}
			if want >= 0 {
				row[fields[want].col] = coerceScannedBool(false, fields[want].kind)
			}
			i += 5
		case c == 'n':
			if !strings.HasPrefix(line[i:], "null") {
				return false
			}
			if want >= 0 {
				row[fields[want].col] = storage.Null
			}
			i += 4
		case c == '-' || (c >= '0' && c <= '9'):
			end, small, isSmall, ok := scanJSONNumber(line, i)
			if !ok {
				return false
			}
			if want >= 0 {
				if isSmall && fields[want].kind == storage.KindInt {
					row[fields[want].col] = storage.IntValue(small)
				} else {
					row[fields[want].col] = coerceScannedNumber(line[i:end], fields[want].kind)
				}
			}
			i = end
		default:
			return false // nested object/array or garbage
		}
		i = skipWS(line, i)
		if i >= len(line) {
			return false
		}
		switch line[i] {
		case ',':
			i = skipWS(line, i+1)
		case '}':
			return true
		default:
			return false
		}
	}
}

func skipWS(s string, i int) int {
	for i < len(s) {
		switch s[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// maxSmallDigits is how many decimal digits always fit an int64.
const maxSmallDigits = 18

// scanJSONNumber validates the strict JSON number grammar starting at i and
// returns the index one past the literal. When the literal is -?digits with
// at most maxSmallDigits digits, isSmall is set and small is its value —
// what strconv.ParseInt returns for it, accumulated by the loop that
// validates the digits; any other literal is left to strconv.
func scanJSONNumber(s string, i int) (end int, small int64, isSmall, ok bool) {
	j := i
	neg := false
	if j < len(s) && s[j] == '-' {
		neg = true
		j++
	}
	digits := j
	switch {
	case j < len(s) && s[j] == '0':
		j++
	case j < len(s) && s[j] >= '1' && s[j] <= '9':
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			small = small*10 + int64(s[j]-'0') // wraps past 18 digits, where it is not used
			j++
		}
	default:
		return 0, 0, false, false
	}
	isSmall = j-digits <= maxSmallDigits
	if neg {
		small = -small
	}
	if j < len(s) && s[j] == '.' {
		isSmall = false
		j++
		if j >= len(s) || s[j] < '0' || s[j] > '9' {
			return 0, 0, false, false
		}
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			j++
		}
	}
	if j < len(s) && (s[j] == 'e' || s[j] == 'E') {
		isSmall = false
		j++
		if j < len(s) && (s[j] == '+' || s[j] == '-') {
			j++
		}
		if j >= len(s) || s[j] < '0' || s[j] > '9' {
			return 0, 0, false, false
		}
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			j++
		}
	}
	return j, small, isSmall, true
}

// The coerceScanned* helpers mirror coerceJSON exactly: a scanned string is
// what the decoder yields for an escape-free string, a scanned number
// literal is the json.Number the decoder yields under UseNumber (whose
// Int64/Float64 are strconv.ParseInt/ParseFloat on the literal).

func coerceScannedString(s string, want storage.Kind) storage.Value {
	switch want {
	case storage.KindString:
		return storage.StringValue(s)
	case storage.KindInt:
		if i, err := strconv.ParseInt(s, 10, 64); err == nil {
			return storage.IntValue(i)
		}
	case storage.KindFloat:
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			return storage.FloatValue(f)
		}
	}
	return storage.Null
}

func coerceScannedNumber(lit string, want storage.Kind) storage.Value {
	switch want {
	case storage.KindInt:
		if i, err := strconv.ParseInt(lit, 10, 64); err == nil {
			return storage.IntValue(i)
		}
		if f, err := strconv.ParseFloat(lit, 64); err == nil {
			return storage.IntValue(int64(f))
		}
	case storage.KindFloat:
		if f, err := strconv.ParseFloat(lit, 64); err == nil {
			return storage.FloatValue(f)
		}
	case storage.KindString:
		return storage.StringValue(lit)
	}
	return storage.Null
}

func coerceScannedBool(b bool, want storage.Kind) storage.Value {
	if want == storage.KindBool {
		return storage.BoolValue(b)
	}
	return storage.Null
}

// fallbackScanLine is the legacy SerDe for one line: the streaming decoder
// with UseNumber into a generic map, then coerceJSON per field. Returns
// false for malformed records, which the SerDe skips.
func fallbackScanLine(line string, fields []scanField, row storage.Row) bool {
	dec := json.NewDecoder(strings.NewReader(line))
	dec.UseNumber()
	var rec map[string]any
	if err := dec.Decode(&rec); err != nil {
		return false
	}
	for _, f := range fields {
		row[f.col] = coerceJSON(rec[f.name], f.kind)
	}
	return true
}

// lineScan is an Extract as the source stage of a fused pipeline: the raw
// lines and the plain (non-UDF) fields the scanner fills. It is shared by
// the pipeline's workers; each scans into its own scanBuf.
type lineScan struct {
	node   *logical.Node
	lines  []string
	fields []scanField
	width  int
}

// newScanSource resolves the Extract's log. The source's table is the
// Extract's own output header — signature, schema, the log's scale factor —
// with no rows: the pipeline reads the lines, and fills the table only when
// no stage sits above the Extract.
func newScanSource(n *logical.Node, env *Env) (fusedSource, error) {
	if env.ReadLog == nil {
		return fusedSource{}, fmt.Errorf("exec: no log resolver")
	}
	log, err := env.ReadLog(n.Children[0].LogName)
	if err != nil {
		return fusedSource{}, err
	}
	ls := &lineScan{node: n, lines: log.Lines, width: len(n.Fields)}
	for i, f := range n.Fields {
		if f.UDF == nil {
			ls.fields = append(ls.fields, scanField{name: f.LogField, col: i, kind: f.Type})
		}
	}
	in := storage.NewTable(n.Signature(), n.Schema().Clone())
	in.ScaleFactor = log.ScaleFactor
	return fusedSource{in: in, scan: ls}, nil
}

// scanBuf is one worker's scan buffer: capRows rows carved out of one flat
// value block, overwritten morsel after morsel, plus the worker's own UDF
// evaluators (compiled evaluators reuse scratch between rows). Rows handed
// out by fill alias the block and are valid until the next fill.
type scanBuf struct {
	flat []storage.Value
	rows []storage.Row
	udfs []expr.Compiled
}

// scanBufCost is what a scanBuf of capRows rows charges the ledger.
func (ls *lineScan) scanBufCost(capRows int) int64 {
	return valueCost * int64(capRows) * int64(ls.width)
}

func (ls *lineScan) newScanBuf(capRows int) (*scanBuf, error) {
	buf := &scanBuf{
		flat: make([]storage.Value, capRows*ls.width),
		rows: make([]storage.Row, capRows),
	}
	for j := range buf.rows {
		buf.rows[j] = storage.Row(buf.flat[j*ls.width : (j+1)*ls.width : (j+1)*ls.width])
	}
	for i, f := range ls.node.Fields {
		if f.UDF == nil {
			continue
		}
		c, err := expr.Compile(f.UDF, ls.node.Schema())
		if err != nil {
			return nil, fmt.Errorf("exec: extract UDF field %q: %w", f.OutName, err)
		}
		if buf.udfs == nil {
			buf.udfs = make([]expr.Compiled, ls.width)
		}
		buf.udfs[i] = c
	}
	return buf, nil
}

// fill scans lines[start:end] into the buffer — fastScanLine, falling back
// per line to the exact legacy decoder, malformed records skipped, UDF
// columns computed from the scanned ones — and returns the extracted rows
// with the sum of their EncodedSize.
func (ls *lineScan) fill(buf *scanBuf, start, end int) ([]storage.Row, int64) {
	k := 0
	for _, line := range ls.lines[start:end] {
		row := buf.rows[k]
		clear(row) // the previous morsel's values: a field the line lacks is NULL
		if !fastScanLine(line, ls.fields, row) {
			clear(row) // partial fast-path writes
			if !fallbackScanLine(line, ls.fields, row) {
				continue // malformed record: skipped by the SerDe
			}
		}
		for i, eval := range buf.udfs {
			if eval != nil {
				row[i] = eval(row)
			}
		}
		k++
	}
	return buf.rows[:k], storage.Row(buf.flat[:k*ls.width]).EncodedSize()
}
