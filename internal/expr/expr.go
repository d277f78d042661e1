// Package expr defines the scalar expression language shared by the logical
// plan and the execution engines: typed expression trees with canonical
// string forms (used for view identity and subsumption), a compiler from
// trees to row-level evaluators, builtin scalar functions, and the UDF
// registry. UDFs are arbitrary user code that can only execute in the big
// data store (HV); the registry records that restriction so the multistore
// optimizer never places them in DW.
package expr

import (
	"sort"
	"strings"

	"miso/internal/storage"
)

// Expr is a scalar expression over named columns.
type Expr interface {
	// Canon returns a canonical string form: commutative operands are
	// sorted so semantically identical predicates written in different
	// orders collide, which is what view matching needs.
	Canon() string
	// Walk visits this node and all descendants.
	Walk(fn func(Expr))
}

// ColRef references a column of the input schema by its resolved name.
type ColRef struct {
	Name string
}

// Canon implements Expr.
func (e *ColRef) Canon() string { return e.Name }

// Walk implements Expr.
func (e *ColRef) Walk(fn func(Expr)) { fn(e) }

// Const is a literal value.
type Const struct {
	Val storage.Value
}

// Canon implements Expr.
func (e *Const) Canon() string {
	if e.Val.Kind == storage.KindString {
		return "'" + e.Val.S + "'"
	}
	return e.Val.String()
}

// Walk implements Expr.
func (e *Const) Walk(fn func(Expr)) { fn(e) }

// BinOp is a binary operation; Op ∈ {AND OR = != < <= > >= + - * / % LIKE}.
type BinOp struct {
	Op   string
	L, R Expr
}

// commutative ops whose operands are sorted in Canon.
var commutative = map[string]bool{"AND": true, "OR": true, "=": true, "!=": true, "+": true, "*": true}

// Canon implements Expr.
func (e *BinOp) Canon() string {
	l, r := e.L.Canon(), e.R.Canon()
	op := e.Op
	if commutative[op] && r < l {
		l, r = r, l
	}
	// Normalize flipped inequalities: a > b always becomes b < a, so the
	// two spellings of the same comparison share one canonical form.
	switch op {
	case ">":
		l, r, op = r, l, "<"
	case ">=":
		l, r, op = r, l, "<="
	}
	return "(" + l + " " + op + " " + r + ")"
}

// Walk implements Expr.
func (e *BinOp) Walk(fn func(Expr)) {
	fn(e)
	e.L.Walk(fn)
	e.R.Walk(fn)
}

// Not negates a boolean expression.
type Not struct {
	E Expr
}

// Canon implements Expr.
func (e *Not) Canon() string { return "(NOT " + e.E.Canon() + ")" }

// Walk implements Expr.
func (e *Not) Walk(fn func(Expr)) { fn(e); e.E.Walk(fn) }

// Neg is unary numeric negation.
type Neg struct {
	E Expr
}

// Canon implements Expr.
func (e *Neg) Canon() string { return "(- " + e.E.Canon() + ")" }

// Walk implements Expr.
func (e *Neg) Walk(fn func(Expr)) { fn(e); e.E.Walk(fn) }

// Func is a scalar function call: builtin or UDF.
type Func struct {
	Name string // upper case
	Args []Expr
}

// Canon implements Expr.
func (e *Func) Canon() string {
	args := make([]string, len(e.Args))
	for i, a := range e.Args {
		args[i] = a.Canon()
	}
	return e.Name + "(" + strings.Join(args, ",") + ")"
}

// Walk implements Expr.
func (e *Func) Walk(fn func(Expr)) {
	fn(e)
	for _, a := range e.Args {
		a.Walk(fn)
	}
}

// IsUDF reports whether the call names a registered user-defined function.
func (e *Func) IsUDF() bool {
	_, ok := udfs[e.Name]
	return ok
}

// IsNull tests for NULL.
type IsNull struct {
	E   Expr
	Neg bool
}

// Canon implements Expr.
func (e *IsNull) Canon() string {
	if e.Neg {
		return "(" + e.E.Canon() + " IS NOT NULL)"
	}
	return "(" + e.E.Canon() + " IS NULL)"
}

// Walk implements Expr.
func (e *IsNull) Walk(fn func(Expr)) { fn(e); e.E.Walk(fn) }

// In tests membership in a literal list.
type In struct {
	E     Expr
	Items []Expr
	Neg   bool
}

// Canon implements Expr.
func (e *In) Canon() string {
	items := make([]string, len(e.Items))
	for i, it := range e.Items {
		items[i] = it.Canon()
	}
	sort.Strings(items)
	neg := ""
	if e.Neg {
		neg = "NOT "
	}
	return "(" + e.E.Canon() + " " + neg + "IN [" + strings.Join(items, ",") + "])"
}

// Walk implements Expr.
func (e *In) Walk(fn func(Expr)) {
	fn(e)
	e.E.Walk(fn)
	for _, it := range e.Items {
		it.Walk(fn)
	}
}

// Columns returns the set of column names referenced by e, sorted.
func Columns(e Expr) []string {
	set := map[string]bool{}
	e.Walk(func(x Expr) {
		if c, ok := x.(*ColRef); ok {
			set[c.Name] = true
		}
	})
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// UsesUDF reports whether any function call in e is a registered UDF.
func UsesUDF(e Expr) bool {
	found := false
	e.Walk(func(x Expr) {
		if f, ok := x.(*Func); ok && f.IsUDF() {
			found = true
		}
	})
	return found
}

// Conjuncts splits a predicate on top-level ANDs into its conjuncts.
func Conjuncts(e Expr) []Expr {
	if b, ok := e.(*BinOp); ok && b.Op == "AND" {
		return append(Conjuncts(b.L), Conjuncts(b.R)...)
	}
	return []Expr{e}
}

// AndAll combines conjuncts back into a predicate; nil for an empty list.
func AndAll(es []Expr) Expr {
	var out Expr
	for _, e := range es {
		if out == nil {
			out = e
		} else {
			out = &BinOp{Op: "AND", L: out, R: e}
		}
	}
	return out
}
