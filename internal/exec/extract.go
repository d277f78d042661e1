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
	"miso/internal/govern"
	"miso/internal/logical"
	"miso/internal/storage"
)

// scanField is one plain (non-UDF) extract field: raw log field name, its
// output column, the declared type to coerce to, and pend: 0, or one more
// than the slot deferUnread gave the field in the buffer's pending block.
type scanField struct {
	name string
	col  int
	kind storage.Kind
	pend int
}

// keyHint is what the k-th key of the last line taught the scanner: the
// key's bytes from opening quote to colon, and the field it fills (nil for
// none). Lines of one log share their key order, so the next line's k-th
// key is almost always the same token; a token is the whole key, so the
// same bytes cannot mean another field.
type keyHint struct {
	token string
	field *scanField
}

// maxDeferredLen bounds a deferred float literal: with no exponent and
// fewer bytes than this it is below 1e300 in magnitude, so ParseFloat
// cannot report ErrRange and the column holds a float of encoded size 8
// whatever its digits say.
const maxDeferredLen = 300

// fastScanLine parses one flat JSON object into the wanted columns of row.
// It returns false — leaving row and pend in an undefined state — whenever
// the line needs the exact fallback decoder: string escapes, control
// characters, invalid UTF-8 in a wanted string, nested objects/arrays,
// numbers outside the JSON grammar, or malformed structure. Duplicate keys
// are last-wins and bytes after the closing brace are ignored, matching the
// streaming decoder's behavior.
//
// A number bound for a field with a pending slot is not converted: the row
// gets a float placeholder, whose encoded size is already right, and the slot
// the literal, for lineScan.finish to convert if the row survives. The slot is
// emptied wherever the field's key appears, so a duplicate replaces or cancels.
func fastScanLine(line string, fields []scanField, hints *[]keyHint, row storage.Row, pend []string) bool {
	i := skipWS(line, 0)
	if i >= len(line) || line[i] != '{' {
		return false
	}
	i = skipWS(line, i+1)
	if i < len(line) && line[i] == '}' {
		return true
	}
	for k := 0; ; k++ {
		var f *scanField // nil: the value is validated and dropped
		if k < len(*hints) && strings.HasPrefix(line[i:], (*hints)[k].token) {
			f = (*hints)[k].field
			i += len((*hints)[k].token)
		} else {
			if i >= len(line) || line[i] != '"' {
				return false
			}
			j, _, ok := scanString(line, i+1)
			if !ok {
				return false
			}
			for fi := range fields {
				if fields[fi].name == line[i+1:j] {
					f = &fields[fi]
					break
				}
			}
			j = skipWS(line, j+1)
			if j >= len(line) || line[j] != ':' {
				return false
			}
			// The layout from here on is this line's: the later keys relearn.
			*hints = append((*hints)[:k], keyHint{token: line[i : j+1], field: f})
			i = j + 1
		}
		i = skipWS(line, i)
		if i >= len(line) {
			return false
		}
		if f != nil && f.pend > 0 {
			pend[f.pend-1] = "" // a duplicate key cancels what the earlier one left
		}
		switch c := line[i]; {
		case c == '"':
			j, ascii, ok := scanString(line, i+1)
			if !ok {
				return false
			}
			if f != nil {
				val := line[i+1 : j]
				if !ascii && !utf8.ValidString(val) {
					return false // decoder would substitute U+FFFD
				}
				row[f.col] = coerceScannedString(val, f.kind)
			}
			i = j + 1
		case c == 't':
			if !strings.HasPrefix(line[i:], "true") {
				return false
			}
			if f != nil {
				row[f.col] = coerceScannedBool(true, f.kind)
			}
			i += 4
		case c == 'f':
			if !strings.HasPrefix(line[i:], "false") {
				return false
			}
			if f != nil {
				row[f.col] = coerceScannedBool(false, f.kind)
			}
			i += 5
		case c == 'n':
			if !strings.HasPrefix(line[i:], "null") {
				return false
			}
			if f != nil {
				row[f.col] = storage.Null
			}
			i += 4
		case c == '-' || (c >= '0' && c <= '9'):
			end, small, class, ok := scanJSONNumber(line, i)
			if !ok {
				return false
			}
			if f != nil {
				switch {
				case class == numSmallInt && f.kind == storage.KindInt:
					row[f.col] = storage.IntValue(small)
				case class != numExp && f.pend > 0 && end-i < maxDeferredLen:
					row[f.col], pend[f.pend-1] = storage.FloatValue(0), line[i:end]
				default:
					row[f.col] = coerceScannedNumber(line[i:end], f.kind)
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

// scanString returns the index of the quote that closes the escape-free
// string whose first byte is s[i], stepping eight bytes at a time while a
// word holds no quote, backslash, control byte or byte >= 0x80 (the usual
// has-zero and has-less masks) and byte by byte from the first word that
// does. ok is false for an escape, a control byte or a missing quote; ascii
// reports that no byte >= 0x80 was seen, so the string is valid UTF-8.
func scanString(s string, i int) (end int, ascii, ok bool) {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	for ; i+8 <= len(s); i += 8 {
		t := s[i : i+8]
		w := uint64(t[0]) | uint64(t[1])<<8 | uint64(t[2])<<16 | uint64(t[3])<<24 |
			uint64(t[4])<<32 | uint64(t[5])<<40 | uint64(t[6])<<48 | uint64(t[7])<<56
		q, b := w^(ones*'"'), w^(ones*'\\')
		if ((q-ones)&^q|(b-ones)&^b|(w-ones*0x20)&^w|w)&highs != 0 {
			break
		}
	}
	var seen byte
	for ; i < len(s) && s[i] != '"'; i++ {
		if s[i] == '\\' || s[i] < 0x20 {
			return 0, false, false
		}
		seen |= s[i]
	}
	return i, seen < 0x80, i < len(s)
}

func skipWS(s string, i int) int {
	for i < len(s) && s[i] <= ' ' && (s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r') {
		i++
	}
	return i
}

// maxSmallDigits is how many decimal digits always fit an int64.
const maxSmallDigits = 18

// numClass is what scanJSONNumber learned about a literal's shape.
type numClass uint8

const (
	numSmallInt numClass = iota // -?digits, at most maxSmallDigits of them
	numPlain                    // longer, or with a fraction; no exponent
	numExp
)

// scanJSONNumber validates the strict JSON number grammar starting at i and
// returns the index one past the literal and its class. For a numSmallInt
// small is the literal's value — what strconv.ParseInt returns for it,
// accumulated by the loop that validates the digits; any other literal is
// left to strconv.
func scanJSONNumber(s string, i int) (end int, small int64, class numClass, ok bool) {
	j := i
	neg := j < len(s) && s[j] == '-'
	if neg {
		j++
	}
	digits := j
	switch {
	case j < len(s) && s[j] == '0':
		j++
	case j < len(s) && s[j] >= '1' && s[j] <= '9':
		for j < len(s) && s[j]-'0' <= 9 {
			small = small*10 + int64(s[j]-'0') // wraps past 18 digits, where it is not used
			j++
		}
	default:
		return 0, 0, 0, false
	}
	if j-digits > maxSmallDigits {
		class = numPlain
	}
	if neg {
		small = -small
	}
	if j < len(s) && s[j] == '.' {
		class = numPlain
		frac := j + 1
		if j = skipDigits(s, frac); j == frac {
			return 0, 0, 0, false
		}
	}
	if j < len(s) && (s[j] == 'e' || s[j] == 'E') {
		class = numExp
		j++
		if j < len(s) && (s[j] == '+' || s[j] == '-') {
			j++
		}
		exp := j
		if j = skipDigits(s, exp); j == exp {
			return 0, 0, 0, false
		}
	}
	return j, small, class, true
}

// skipDigits returns the index of the first byte at or after j that is not
// a decimal digit.
func skipDigits(s string, j int) int {
	for j < len(s) && s[j]-'0' <= 9 {
		j++
	}
	return j
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
	node     *logical.Node
	lines    []string
	fields   []scanField
	width    int
	pendCols []int     // output column of each pending slot; empty unless deferUnread found one
	pool     *scanBufs // the run's scan buffers, which this pass borrows
}

// newScanSource resolves the Extract's log. The source's table is the
// Extract's own output header — signature, schema, the log's scale factor —
// with no rows: the pipeline reads the lines, and fills the table only when
// no stage sits above the Extract.
func newScanSource(n *logical.Node, env *Env, pool *scanBufs) (fusedSource, error) {
	if env.ReadLog == nil {
		return fusedSource{}, fmt.Errorf("exec: no log resolver")
	}
	log, err := env.ReadLog(n.Children[0].LogName)
	if err != nil {
		return fusedSource{}, err
	}
	ls := &lineScan{node: n, lines: log.Lines, width: len(n.Fields), pool: pool}
	for i, f := range n.Fields {
		if f.UDF == nil {
			ls.fields = append(ls.fields, scanField{name: f.LogField, col: i, kind: f.Type})
		}
	}
	in := storage.NewTable(n.Signature(), n.Schema())
	in.ScaleFactor = log.ScaleFactor
	return fusedSource{in: in, scan: ls}, nil
}

// deferUnread gives a pending slot to every float field that neither pred —
// the filter right above the Extract — nor a hoisted UDF reads: nothing
// looks at such a column until that filter's selection is known, and its
// encoded size does not wait for its digits (fastScanLine).
func (ls *lineScan) deferUnread(pred expr.Expr) {
	read, schema := make([]bool, ls.width), ls.node.Schema()
	mark := func(e expr.Expr) {
		if c, ok := e.(*expr.ColRef); ok && schema.Has(c.Name) {
			read[schema.Index(c.Name)] = true
		}
	}
	pred.Walk(mark)
	for _, f := range ls.node.Fields {
		if f.UDF != nil {
			f.UDF.Walk(mark)
		}
	}
	for i := range ls.fields {
		if f := &ls.fields[i]; f.kind == storage.KindFloat && !read[f.col] {
			ls.pendCols = append(ls.pendCols, f.col)
			f.pend = len(ls.pendCols)
		}
	}
}

// scanBuf is one worker's scan buffer: capRows rows carved out of one flat
// value block, overwritten morsel after morsel, the rows' pending literals
// (len(pendCols) slots a row; "" is nothing pending), the key layout the
// scanner learned, and the worker's own UDF evaluators (compiled evaluators
// reuse scratch between rows). Rows handed out by fill alias the block and
// are valid until the next fill.
type scanBuf struct {
	flat  []storage.Value
	rows  []storage.Row
	pend  []string
	hints []keyHint
	udfs  []expr.Compiled
	sc    *govern.Scope // the ledger's charge for flat and pend
}

// scanBufs are the scan buffers one run holds, by worker. A run's Extract
// passes are sequential: each borrows the buffers the last one left, and the
// ledger keeps them charged until the run releases them.
type scanBufs []*scanBuf

func (p *scanBufs) release() {
	for _, buf := range *p {
		buf.sc.Release()
	}
}

// borrowBuf returns worker w's buffer, shaped for this Extract and capRows
// rows. It is the buffer the run's last Extract pass left, with a block
// reallocated only where this pass needs a larger one; the ledger is charged
// for the blocks' capacity.
func (ls *lineScan) borrowBuf(env *Env, w, capRows int) (*scanBuf, error) {
	for len(*ls.pool) <= w {
		*ls.pool = append(*ls.pool, &scanBuf{sc: env.scope()})
	}
	buf := (*ls.pool)[w]
	nVal, nPend := capRows*ls.width, capRows*len(ls.pendCols)
	if cap(buf.flat) < nVal || cap(buf.pend) < nPend {
		buf.sc.Release()
		cost := valueCost*int64(max(nVal, cap(buf.flat))) + spanCost*int64(max(nPend, cap(buf.pend)))
		if err := env.reserve(buf.sc, cost); err != nil {
			return nil, err
		}
		if cap(buf.flat) < nVal {
			buf.flat, buf.rows = make([]storage.Value, nVal), make([]storage.Row, 0, capRows)
		}
		if cap(buf.pend) < nPend {
			buf.pend = make([]string, nPend)
		}
	}
	buf.flat, buf.pend, buf.rows, buf.hints, buf.udfs = buf.flat[:nVal], buf.pend[:nPend], buf.rows[:0], buf.hints[:0], nil
	for j := 0; j < capRows; j++ {
		buf.rows = append(buf.rows, storage.Row(buf.flat[j*ls.width:(j+1)*ls.width:(j+1)*ls.width]))
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

// fill scans lines[start:end] into the buffer — the fast scanner, falling
// back per line to the exact legacy decoder, malformed records skipped, UDF
// columns computed from the scanned ones — and returns the extracted rows
// with the sum of their EncodedSize. Pending floats are still placeholders.
func (ls *lineScan) fill(buf *scanBuf, start, end int) ([]storage.Row, int64) {
	k, n := 0, len(ls.pendCols)
	var size int64
	for _, line := range ls.lines[start:end] {
		row, pend := buf.rows[k], buf.pend[k*n:(k+1)*n]
		clear(row) // the previous morsel's values: a field the line lacks is NULL
		clear(pend)
		if !fastScanLine(line, ls.fields, &buf.hints, row, pend) {
			clear(row) // partial fast-path writes
			clear(pend)
			if !fallbackScanLine(line, ls.fields, row) {
				continue // malformed record: skipped by the SerDe
			}
		}
		for i, eval := range buf.udfs {
			if eval != nil {
				row[i] = eval(row)
			}
		}
		size += row.EncodedSize()
		k++
	}
	return buf.rows[:k], size
}

// finish converts the pending literals of the selected rows in place: the
// survivors of the filter above the Extract are the only rows anyone reads a
// deferred column of.
func (ls *lineScan) finish(buf *scanBuf, sel []int32) {
	n := len(ls.pendCols)
	for _, i := range sel {
		for slot, lit := range buf.pend[int(i)*n : (int(i)+1)*n] {
			if lit != "" {
				f, _ := strconv.ParseFloat(lit, 64) // cannot fail: see maxDeferredLen
				buf.rows[i][ls.pendCols[slot]] = storage.FloatValue(f)
			}
		}
	}
}
