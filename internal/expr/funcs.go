package expr

import (
	"fmt"
	"strings"
	"time"

	"miso/internal/storage"
)

// FuncImpl is the runtime implementation and type signature of a scalar
// function.
type FuncImpl struct {
	Name    string
	RetType storage.Kind
	MinArgs int
	MaxArgs int
	Eval    func(args []storage.Value) storage.Value
	// HVOnly marks user-defined functions that can only execute in the
	// big data store (arbitrary user code, per the paper): any plan node
	// using one is pinned to HV by the multistore optimizer.
	HVOnly bool
}

var builtins = map[string]*FuncImpl{}
var udfs = map[string]*FuncImpl{}

func registerBuiltin(f *FuncImpl) { builtins[f.Name] = f }

// RegisterUDF installs a user-defined function. UDFs are always HV-only.
func RegisterUDF(f *FuncImpl) {
	f.HVOnly = true
	udfs[f.Name] = f
}

// LookupFunc finds a builtin or UDF by upper-case name.
func LookupFunc(name string) (*FuncImpl, bool) {
	if f, ok := builtins[name]; ok {
		return f, true
	}
	f, ok := udfs[name]
	return f, ok
}

// IsAggregateName reports whether the name is one of the aggregate
// functions, which are handled by the Aggregate operator rather than the
// scalar evaluator.
func IsAggregateName(name string) bool {
	switch name {
	case "COUNT", "SUM", "AVG", "MIN", "MAX":
		return true
	default:
		return false
	}
}

func argFloat(v storage.Value) float64 {
	f, _ := v.AsFloat()
	return f
}

func init() {
	registerBuiltin(&FuncImpl{
		Name: "UPPER", RetType: storage.KindString, MinArgs: 1, MaxArgs: 1,
		Eval: func(a []storage.Value) storage.Value {
			if a[0].IsNull() {
				return storage.Null
			}
			return storage.StringValue(strings.ToUpper(a[0].String()))
		},
	})
	registerBuiltin(&FuncImpl{
		Name: "LOWER", RetType: storage.KindString, MinArgs: 1, MaxArgs: 1,
		Eval: func(a []storage.Value) storage.Value {
			if a[0].IsNull() {
				return storage.Null
			}
			return storage.StringValue(strings.ToLower(a[0].String()))
		},
	})
	registerBuiltin(&FuncImpl{
		Name: "LENGTH", RetType: storage.KindInt, MinArgs: 1, MaxArgs: 1,
		Eval: func(a []storage.Value) storage.Value {
			if a[0].IsNull() {
				return storage.Null
			}
			return storage.IntValue(int64(len(a[0].String())))
		},
	})
	registerBuiltin(&FuncImpl{
		Name: "SUBSTR", RetType: storage.KindString, MinArgs: 2, MaxArgs: 3,
		Eval: func(a []storage.Value) storage.Value {
			if a[0].IsNull() {
				return storage.Null
			}
			s := a[0].String()
			start, _ := a[1].AsInt()
			if start < 1 {
				start = 1
			}
			if int(start) > len(s) {
				return storage.StringValue("")
			}
			out := s[start-1:]
			if len(a) == 3 {
				n, _ := a[2].AsInt()
				if n < 0 {
					n = 0
				}
				if int(n) < len(out) {
					out = out[:n]
				}
			}
			return storage.StringValue(out)
		},
	})
	registerBuiltin(&FuncImpl{
		Name: "ABS", RetType: storage.KindFloat, MinArgs: 1, MaxArgs: 1,
		Eval: func(a []storage.Value) storage.Value {
			if a[0].IsNull() {
				return storage.Null
			}
			f := argFloat(a[0])
			if f < 0 {
				f = -f
			}
			if a[0].Kind == storage.KindInt {
				return storage.IntValue(int64(f))
			}
			return storage.FloatValue(f)
		},
	})
	registerBuiltin(&FuncImpl{
		Name: "ROUND", RetType: storage.KindInt, MinArgs: 1, MaxArgs: 1,
		Eval: func(a []storage.Value) storage.Value {
			if a[0].IsNull() {
				return storage.Null
			}
			f := argFloat(a[0])
			if f >= 0 {
				return storage.IntValue(int64(f + 0.5))
			}
			return storage.IntValue(int64(f - 0.5))
		},
	})
	registerBuiltin(&FuncImpl{
		Name: "YEAR", RetType: storage.KindInt, MinArgs: 1, MaxArgs: 1,
		Eval: func(a []storage.Value) storage.Value {
			ts, ok := a[0].AsInt()
			if !ok {
				return storage.Null
			}
			return storage.IntValue(int64(time.Unix(ts, 0).UTC().Year()))
		},
	})
	registerBuiltin(&FuncImpl{
		Name: "MONTH", RetType: storage.KindInt, MinArgs: 1, MaxArgs: 1,
		Eval: func(a []storage.Value) storage.Value {
			ts, ok := a[0].AsInt()
			if !ok {
				return storage.Null
			}
			return storage.IntValue(int64(time.Unix(ts, 0).UTC().Month()))
		},
	})
	registerBuiltin(&FuncImpl{
		Name: "DAYOFWEEK", RetType: storage.KindInt, MinArgs: 1, MaxArgs: 1,
		Eval: func(a []storage.Value) storage.Value {
			ts, ok := a[0].AsInt()
			if !ok {
				return storage.Null
			}
			return storage.IntValue(int64(time.Unix(ts, 0).UTC().Weekday()))
		},
	})
	registerBuiltin(&FuncImpl{
		Name: "CONCAT", RetType: storage.KindString, MinArgs: 1, MaxArgs: 8,
		Eval: func(a []storage.Value) storage.Value {
			var b strings.Builder
			for _, v := range a {
				if !v.IsNull() {
					b.WriteString(v.String())
				}
			}
			return storage.StringValue(b.String())
		},
	})

	// The workload's UDFs. These model the paper's arbitrary user code
	// (Perl/Python streaming scripts): opaque to DW and therefore pinned
	// to HV. Their implementations are simple deterministic functions so
	// experiments are reproducible.
	RegisterUDF(&FuncImpl{
		Name: "SENTIMENT", RetType: storage.KindFloat, MinArgs: 1, MaxArgs: 1,
		Eval: func(a []storage.Value) storage.Value {
			if a[0].IsNull() {
				return storage.Null
			}
			text := strings.ToLower(a[0].String())
			score := 0.0
			for _, w := range []string{"amazing", "best", "love", "great", "happy", "recommend"} {
				if strings.Contains(text, w) {
					score++
				}
			}
			for _, w := range []string{"terrible", "worst", "hate", "avoid", "fail"} {
				if strings.Contains(text, w) {
					score--
				}
			}
			return storage.FloatValue(score)
		},
	})
	RegisterUDF(&FuncImpl{
		Name: "TOPIC", RetType: storage.KindString, MinArgs: 1, MaxArgs: 1,
		Eval: func(a []storage.Value) storage.Value {
			if a[0].IsNull() {
				return storage.Null
			}
			text := strings.ToLower(a[0].String())
			switch {
			case strings.Contains(text, "pizza") || strings.Contains(text, "burger") ||
				strings.Contains(text, "sushi") || strings.Contains(text, "food") ||
				strings.Contains(text, "brunch") || strings.Contains(text, "vegan"):
				return storage.StringValue("dining")
			case strings.Contains(text, "coffee"):
				return storage.StringValue("coffee")
			case strings.Contains(text, "travel"):
				return storage.StringValue("travel")
			case strings.Contains(text, "deal") || strings.Contains(text, "launch"):
				return storage.StringValue("commerce")
			default:
				return storage.StringValue("other")
			}
		},
	})
	RegisterUDF(&FuncImpl{
		Name: "GEO_CELL", RetType: storage.KindString, MinArgs: 2, MaxArgs: 2,
		Eval: func(a []storage.Value) storage.Value {
			lat, ok1 := a[0].AsFloat()
			lon, ok2 := a[1].AsFloat()
			if !ok1 || !ok2 {
				return storage.Null
			}
			return storage.StringValue(fmt.Sprintf("cell_%d_%d", int(lat), int(-lon)))
		},
	})
	RegisterUDF(&FuncImpl{
		Name: "INFLUENCE", RetType: storage.KindFloat, MinArgs: 2, MaxArgs: 2,
		Eval: func(a []storage.Value) storage.Value {
			rts, ok1 := a[0].AsFloat()
			fol, ok2 := a[1].AsFloat()
			if !ok1 || !ok2 {
				return storage.Null
			}
			return storage.FloatValue(rts*10 + fol/1000)
		},
	})
	RegisterUDF(&FuncImpl{
		Name: "IS_WEEKEND", RetType: storage.KindBool, MinArgs: 1, MaxArgs: 1,
		Eval: func(a []storage.Value) storage.Value {
			ts, ok := a[0].AsInt()
			if !ok {
				return storage.Null
			}
			wd := time.Unix(ts, 0).UTC().Weekday()
			return storage.BoolValue(wd == time.Saturday || wd == time.Sunday)
		},
	})
}
