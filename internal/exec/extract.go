// Parallel Extract: morsels of raw log lines are parsed by a hand-rolled
// scanner for flat JSON objects, with a per-line fallback to the standard
// streaming decoder whenever the fast path cannot prove it would produce
// the exact same values (escapes, nested values, nonstandard numbers,
// invalid UTF-8). The fallback decodes a line exactly as the reference
// extract does, so the two outputs are byte-identical by construction.
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
			end, ok := scanJSONNumber(line, i)
			if !ok {
				return false
			}
			if want >= 0 {
				row[fields[want].col] = coerceScannedNumber(line[i:end], fields[want].kind)
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

// scanJSONNumber validates the strict JSON number grammar starting at i and
// returns the index one past the literal.
func scanJSONNumber(s string, i int) (int, bool) {
	j := i
	if j < len(s) && s[j] == '-' {
		j++
	}
	switch {
	case j < len(s) && s[j] == '0':
		j++
	case j < len(s) && s[j] >= '1' && s[j] <= '9':
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			j++
		}
	default:
		return 0, false
	}
	if j < len(s) && s[j] == '.' {
		j++
		if j >= len(s) || s[j] < '0' || s[j] > '9' {
			return 0, false
		}
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			j++
		}
	}
	if j < len(s) && (s[j] == 'e' || s[j] == 'E') {
		j++
		if j < len(s) && (s[j] == '+' || s[j] == '-') {
			j++
		}
		if j >= len(s) || s[j] < '0' || s[j] > '9' {
			return 0, false
		}
		for j < len(s) && s[j] >= '0' && s[j] <= '9' {
			j++
		}
	}
	return j, true
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

// runExtractMorsel is the morsel engine's Extract: lines are scanned per
// morsel with fastScanLine (falling back per line to the exact legacy
// decoder), UDF columns are computed with per-worker compiled evaluators,
// and per-morsel row buffers are appended in morsel order.
func runExtractMorsel(n *logical.Node, env *Env) (*storage.Table, error) {
	if env.ReadLog == nil {
		return nil, fmt.Errorf("exec: no log resolver")
	}
	log, err := env.ReadLog(n.Children[0].LogName)
	if err != nil {
		return nil, err
	}
	schema := n.Schema()
	fields := make([]scanField, 0, len(n.Fields))
	for i, f := range n.Fields {
		if f.UDF == nil {
			fields = append(fields, scanField{name: f.LogField, col: i, kind: f.Type})
		}
	}
	workers := env.workerCount()
	// Compiled evaluators reuse scratch state between rows, so each worker
	// gets its own set.
	hasUDF := false
	workerUDFs := make([][]expr.Compiled, workers)
	for w := 0; w < workers; w++ {
		evals := make([]expr.Compiled, len(n.Fields))
		for i, f := range n.Fields {
			if f.UDF == nil {
				continue
			}
			hasUDF = true
			c, err := expr.Compile(f.UDF, schema)
			if err != nil {
				return nil, fmt.Errorf("exec: extract UDF field %q: %w", f.OutName, err)
			}
			evals[i] = c
		}
		workerUDFs[w] = evals
	}
	lines := log.Lines
	width := len(n.Fields)
	sc := env.scope()
	defer sc.Release()
	chunks := make([][]storage.Row, morselCount(len(lines), env.morselRows()))
	err = forEachMorsel(env, "extract", workers, len(lines), env.morselRows(), func(w, m, start, end int) error {
		evals := workerUDFs[w]
		buf := make([]storage.Row, 0, end-start)
		for _, line := range lines[start:end] {
			row := make(storage.Row, width)
			if !fastScanLine(line, fields, row) {
				for i := range row {
					row[i] = storage.Null // clear partial fast-path writes
				}
				if !fallbackScanLine(line, fields, row) {
					continue // malformed record: skipped by the SerDe
				}
			}
			if hasUDF {
				for i, eval := range evals {
					if eval != nil {
						row[i] = eval(row)
					}
				}
			}
			buf = append(buf, row)
		}
		if err := env.reserve(sc, rowsEncodedSize(buf)); err != nil {
			return err
		}
		chunks[m] = buf
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := storage.NewTable(n.Signature(), schema.Clone())
	out.ScaleFactor = log.ScaleFactor
	return appendChunks(env, out, chunks)
}
