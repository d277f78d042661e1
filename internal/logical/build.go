package logical

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"

	"miso/internal/expr"
	"miso/internal/sqlparser"
	"miso/internal/storage"
)

// memoCap bounds the statements a Builder remembers. A full memo is
// cleared rather than evicted from: the paper's analyst asks 32 texts.
const memoCap = 1024

// Builder turns parsed queries into typed logical plans against a catalog.
// It is safe for concurrent use.
type Builder struct {
	cat *storage.Catalog

	mu sync.RWMutex
	// memo maps SQL text to its built plan. A registered log only grows
	// (storage.Catalog.AddLog), so a plan that built stays right, and built
	// plans are immutable, so every caller of one text shares one plan.
	memo map[string]*Node
}

// NewBuilder returns a Builder over the catalog.
func NewBuilder(cat *storage.Catalog) *Builder { return &Builder{cat: cat} }

// BuildSQL parses and plans a query in one step. A text is parsed and
// built once: later calls return the same plan. Failed builds are not
// remembered.
func (b *Builder) BuildSQL(sql string) (*Node, error) {
	b.mu.RLock()
	n, ok := b.memo[sql]
	b.mu.RUnlock()
	if ok {
		return n, nil
	}
	q, err := sqlparser.Parse(sql)
	if err != nil {
		return nil, err
	}
	if n, err = b.Build(q); err != nil {
		return nil, err
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.memo) >= memoCap {
		b.memo = nil
	}
	if first, ok := b.memo[sql]; ok {
		// A concurrent first build of the same text got here before us.
		return first, nil
	}
	if b.memo == nil {
		b.memo = make(map[string]*Node)
	}
	b.memo[sql] = n
	return n, nil
}

// Build plans a parsed query. The plan is normalized (stacked filters
// collapsed, identity projections dropped) so that semantically equal
// queries written differently share canonical signatures. Unlike BuildSQL,
// every call builds afresh.
func (b *Builder) Build(q *sqlparser.Query) (*Node, error) {
	n, err := b.buildQuery(q)
	if err != nil {
		return nil, err
	}
	return Normalize(n), nil
}

// tableEntry tracks one FROM-clause relation during planning.
type tableEntry struct {
	alias     string
	qual      string // column-name qualifier: the log name for base logs
	isLog     bool
	log       *storage.LogFile
	subPlan   *Node                // for derived tables, already qualified
	available map[string]bool      // base column names visible under this alias
	needed    map[string]bool      // base columns actually referenced
	udfCols   map[string]expr.Expr // hoisted UDF columns: out name -> expr
	leaf      *Node                // built leaf plan
	rightOfLJ bool                 // appears as the right side of a LEFT JOIN
}

// qualified names a column. Base-log columns are qualified by the log name
// (not the query's alias) so that views created by one query match plans of
// other queries that alias the same log differently.
func (t *tableEntry) qualified(base string) string { return t.qual + "." + base }

func (b *Builder) buildQuery(q *sqlparser.Query) (*Node, error) {
	// 1. Register FROM-clause relations.
	entries := []*tableEntry{}
	byAlias := map[string]*tableEntry{}
	addRef := func(ref sqlparser.TableRef, rightOfLJ bool) error {
		alias := ref.EffectiveName()
		if alias == "" {
			return fmt.Errorf("logical: table reference without a name")
		}
		if _, dup := byAlias[alias]; dup {
			return fmt.Errorf("logical: duplicate table alias %q", alias)
		}
		e := &tableEntry{
			alias:     alias,
			qual:      alias,
			available: map[string]bool{},
			needed:    map[string]bool{},
			udfCols:   map[string]expr.Expr{},
			rightOfLJ: rightOfLJ,
		}
		if ref.Subquery != nil {
			sub, err := b.buildQuery(ref.Subquery)
			if err != nil {
				return fmt.Errorf("logical: in derived table %q: %w", alias, err)
			}
			// Qualify the subquery's output columns with the alias.
			projs := make([]Proj, sub.Schema().Len())
			for i, c := range sub.Schema().Columns {
				projs[i] = Proj{Expr: &expr.ColRef{Name: c.Name}, Name: alias + "." + c.Name}
				e.available[c.Name] = true
			}
			ren, err := newProject(sub, projs)
			if err != nil {
				return err
			}
			e.subPlan = ren
		} else {
			log, err := b.cat.Log(ref.Name)
			if err != nil {
				return err
			}
			e.isLog = true
			e.log = log
			for _, c := range log.FieldTypes.Columns {
				e.available[c.Name] = true
			}
		}
		entries = append(entries, e)
		byAlias[alias] = e
		return nil
	}
	if err := addRef(q.From, false); err != nil {
		return nil, err
	}
	for _, j := range q.Joins {
		if err := addRef(j.Table, j.Type == sqlparser.LeftJoin); err != nil {
			return nil, err
		}
	}
	// Base logs are qualified by log name so view signatures are stable
	// across queries with different aliases — unless the same log appears
	// twice (self-join), in which case aliases disambiguate.
	logCount := map[string]int{}
	for _, e := range entries {
		if e.isLog {
			logCount[e.log.Name]++
		}
	}
	byQual := map[string]*tableEntry{}
	for _, e := range entries {
		if e.isLog && logCount[e.log.Name] == 1 {
			e.qual = e.log.Name
		}
		byQual[e.qual] = e
	}

	// 2. Resolve an AST identifier to its qualified name, recording need.
	resolveIdent := func(id *sqlparser.Ident) (string, error) {
		if id.Qualifier != "" {
			e, ok := byAlias[id.Qualifier]
			if !ok {
				return "", fmt.Errorf("logical: unknown table %q in %s", id.Qualifier, id.SQL())
			}
			if !e.available[id.Name] {
				return "", fmt.Errorf("logical: table %q has no column %q", id.Qualifier, id.Name)
			}
			e.needed[id.Name] = true
			return e.qualified(id.Name), nil
		}
		var found *tableEntry
		for _, e := range entries {
			if e.available[id.Name] {
				if found != nil {
					return "", fmt.Errorf("logical: ambiguous column %q (in %q and %q)",
						id.Name, found.alias, e.alias)
				}
				found = e
			}
		}
		if found == nil {
			return "", fmt.Errorf("logical: unknown column %q", id.Name)
		}
		found.needed[id.Name] = true
		return found.qualified(id.Name), nil
	}

	// 3. Convert AST expressions to resolved logical expressions.
	var convert func(e sqlparser.Expr, allowAgg bool) (expr.Expr, error)
	convert = func(e sqlparser.Expr, allowAgg bool) (expr.Expr, error) {
		switch v := e.(type) {
		case *sqlparser.Ident:
			name, err := resolveIdent(v)
			if err != nil {
				return nil, err
			}
			return &expr.ColRef{Name: name}, nil
		case *sqlparser.Literal:
			return &expr.Const{Val: literalValue(v)}, nil
		case *sqlparser.Binary:
			l, err := convert(v.Left, allowAgg)
			if err != nil {
				return nil, err
			}
			r, err := convert(v.Right, allowAgg)
			if err != nil {
				return nil, err
			}
			return &expr.BinOp{Op: v.Op, L: l, R: r}, nil
		case *sqlparser.Unary:
			in, err := convert(v.Expr, allowAgg)
			if err != nil {
				return nil, err
			}
			if v.Op == "NOT" {
				return &expr.Not{E: in}, nil
			}
			return &expr.Neg{E: in}, nil
		case *sqlparser.IsNull:
			in, err := convert(v.Expr, allowAgg)
			if err != nil {
				return nil, err
			}
			return &expr.IsNull{E: in, Neg: v.Negate}, nil
		case *sqlparser.InList:
			in, err := convert(v.Expr, allowAgg)
			if err != nil {
				return nil, err
			}
			items := make([]expr.Expr, len(v.Items))
			for i, it := range v.Items {
				c, err := convert(it, allowAgg)
				if err != nil {
					return nil, err
				}
				items[i] = c
			}
			return &expr.In{E: in, Items: items, Neg: v.Negate}, nil
		case *sqlparser.Call:
			isAgg := expr.IsAggregateName(v.Name)
			if isAgg && !allowAgg {
				return nil, fmt.Errorf("logical: aggregate %s not allowed here", v.Name)
			}
			if v.Star {
				if v.Name != "COUNT" {
					return nil, fmt.Errorf("logical: only COUNT supports (*)")
				}
				// Placeholder with the AggSpec canonical encoding; it
				// is always substituted by the aggregate output column.
				return &expr.Func{Name: "COUNT_STAR"}, nil
			}
			args := make([]expr.Expr, len(v.Args))
			for i, a := range v.Args {
				c, err := convert(a, allowAgg)
				if err != nil {
					return nil, err
				}
				args[i] = c
			}
			name := v.Name
			if isAgg && v.Distinct {
				name += "_DISTINCT"
			}
			return &expr.Func{Name: name, Args: args}, nil
		default:
			return nil, fmt.Errorf("logical: unsupported expression %T", e)
		}
	}

	// SELECT * forces every available column to be needed.
	hasStar := false
	for _, s := range q.Select {
		if s.Star {
			hasStar = true
		}
	}
	if hasStar {
		for _, e := range entries {
			for c := range e.available {
				e.needed[c] = true
			}
		}
	}

	// 4. First pass over all expressions purely to mark needed columns and
	// surface resolution errors. Aggregates are allowed where legal.
	type converted struct {
		where  expr.Expr
		ons    []expr.Expr
		group  []expr.Expr
		having expr.Expr
		sel    []expr.Expr
		order  []expr.Expr
	}
	var cv converted
	var err error
	if q.Where != nil {
		if cv.where, err = convert(q.Where, false); err != nil {
			return nil, err
		}
	}
	for _, j := range q.Joins {
		on, err := convert(j.On, false)
		if err != nil {
			return nil, err
		}
		cv.ons = append(cv.ons, on)
	}
	for _, g := range q.GroupBy {
		ge, err := convert(g, false)
		if err != nil {
			return nil, err
		}
		cv.group = append(cv.group, ge)
	}
	if q.Having != nil {
		if cv.having, err = convert(q.Having, true); err != nil {
			return nil, err
		}
	}
	for _, s := range q.Select {
		if s.Star {
			cv.sel = append(cv.sel, nil)
			continue
		}
		se, err := convert(s.Expr, true)
		if err != nil {
			return nil, err
		}
		cv.sel = append(cv.sel, se)
	}
	selectAliases := map[string]bool{}
	for _, s := range q.Select {
		if s.Alias != "" {
			selectAliases[s.Alias] = true
		}
	}
	for _, o := range q.OrderBy {
		// A bare identifier naming a select alias is resolved against the
		// projected output later; leave it nil here.
		if id, ok := o.Expr.(*sqlparser.Ident); ok && id.Qualifier == "" && selectAliases[id.Name] {
			cv.order = append(cv.order, nil)
			continue
		}
		oe, err := convert(o.Expr, true)
		if err != nil {
			return nil, err
		}
		cv.order = append(cv.order, oe)
	}

	// 4b. Hoist UDF calls whose inputs come from a single base log into
	// that log's extract as computed SerDe fields, replacing the calls by
	// column references. This normalizes UDF use so that (a) matching
	// views can satisfy UDF-derived expressions as plain data, and (b)
	// everything above the extract is UDF-free and so eligible for DW.
	hoist := func(e expr.Expr) expr.Expr { return hoistUDFs(e, entries, byQual) }
	if cv.where != nil {
		cv.where = hoist(cv.where)
	}
	for i := range cv.ons {
		cv.ons[i] = hoist(cv.ons[i])
	}
	for i := range cv.group {
		cv.group[i] = hoist(cv.group[i])
	}
	if cv.having != nil {
		cv.having = hoist(cv.having)
	}
	for i := range cv.sel {
		if cv.sel[i] != nil {
			cv.sel[i] = hoist(cv.sel[i])
		}
	}
	for i := range cv.order {
		if cv.order[i] != nil {
			cv.order[i] = hoist(cv.order[i])
		}
	}

	// 5. Build leaf plans now that needed columns are known.
	for _, e := range entries {
		if e.isLog {
			leaf, err := buildLogLeaf(e)
			if err != nil {
				return nil, err
			}
			e.leaf = leaf
		} else {
			// Prune the qualifying projection to needed columns.
			leaf, err := pruneColumns(e.subPlan, e, hasStar)
			if err != nil {
				return nil, err
			}
			e.leaf = leaf
		}
	}

	// 6. Partition WHERE into pushable single-table conjuncts and the rest.
	var residualWhere []expr.Expr
	if cv.where != nil {
		for _, c := range expr.Conjuncts(cv.where) {
			e := singleAliasOf(c, byQual)
			if e != nil && !e.rightOfLJ && !expr.UsesUDF(c) {
				f, err := newFilter(e.leaf, c)
				if err != nil {
					return nil, err
				}
				e.leaf = f
			} else if e != nil && !e.rightOfLJ {
				// UDF predicates still push down (they must run in
				// HV anyway and reduce data early).
				f, err := newFilter(e.leaf, c)
				if err != nil {
					return nil, err
				}
				e.leaf = f
			} else {
				residualWhere = append(residualWhere, c)
			}
		}
	}

	// 7. Left-deep join tree in FROM order.
	plan := entries[0].leaf
	joined := map[string]bool{entries[0].qual: true}
	for i, j := range q.Joins {
		right := entries[i+1]
		var leftKeys, rightKeys []string
		var extra []expr.Expr
		for _, c := range expr.Conjuncts(cv.ons[i]) {
			lk, rk, ok := equiKey(c, joined, right.qual)
			if ok {
				leftKeys = append(leftKeys, lk)
				rightKeys = append(rightKeys, rk)
			} else {
				extra = append(extra, c)
			}
		}
		if len(leftKeys) == 0 {
			return nil, fmt.Errorf("logical: join with %q has no equi-join key", right.alias)
		}
		jt := JoinInner
		if j.Type == sqlparser.LeftJoin {
			jt = JoinLeft
		}
		plan, err = newJoin(plan, right.leaf, jt, leftKeys, rightKeys)
		if err != nil {
			return nil, err
		}
		if len(extra) > 0 {
			plan, err = newFilter(plan, expr.AndAll(extra))
			if err != nil {
				return nil, err
			}
		}
		joined[right.qual] = true
	}
	if len(residualWhere) > 0 {
		plan, err = newFilter(plan, expr.AndAll(residualWhere))
		if err != nil {
			return nil, err
		}
	}

	// 8. Aggregation.
	aggCalls := collectAggCalls(q)
	grouped := len(cv.group) > 0 || len(aggCalls) > 0
	aliasByCanon := map[string]string{} // canonical pre-agg expr -> output column
	if grouped {
		var groupProjs []Proj
		for gi, ge := range cv.group {
			name := groupName(ge, gi)
			groupProjs = append(groupProjs, Proj{Expr: ge, Name: name})
			aliasByCanon[ge.Canon()] = name
		}
		var aggSpecs []AggSpec
		seen := map[string]string{}
		for _, call := range aggCalls {
			spec, err := makeAggSpec(call, convert)
			if err != nil {
				return nil, err
			}
			if spec.Arg != nil {
				// Keep the canonical key aligned with the hoisted
				// select/having expressions.
				spec.Arg = hoist(spec.Arg)
			}
			canon := spec.Canon()
			if _, dup := seen[canon]; dup {
				continue
			}
			spec.Name = fmt.Sprintf("agg_%d", len(aggSpecs))
			seen[canon] = spec.Name
			aliasByCanon[canon] = spec.Name
			aggSpecs = append(aggSpecs, spec)
		}
		plan, err = newAggregate(plan, groupProjs, aggSpecs)
		if err != nil {
			return nil, err
		}
		if cv.having != nil {
			h, err := replaceAgg(cv.having, aliasByCanon, plan.Schema())
			if err != nil {
				return nil, fmt.Errorf("logical: HAVING: %w", err)
			}
			plan, err = newFilter(plan, h)
			if err != nil {
				return nil, err
			}
		}
	}

	// 9. Final projection.
	var projs []Proj
	usedNames := map[string]int{}
	uniqueName := func(base string) string {
		if base == "" {
			base = "col"
		}
		n := usedNames[base]
		usedNames[base] = n + 1
		if n == 0 {
			return base
		}
		return fmt.Sprintf("%s_%d", base, n)
	}
	for i, s := range q.Select {
		if s.Star {
			for _, c := range plan.Schema().Columns {
				projs = append(projs, Proj{
					Expr: &expr.ColRef{Name: c.Name},
					Name: uniqueName(baseName(c.Name)),
				})
			}
			continue
		}
		se := cv.sel[i]
		if grouped {
			se, err = replaceAgg(se, aliasByCanon, plan.Schema())
			if err != nil {
				return nil, fmt.Errorf("logical: SELECT item %d: %w", i+1, err)
			}
		}
		name := s.Alias
		if name == "" {
			if id, ok := s.Expr.(*sqlparser.Ident); ok {
				name = id.Name
			} else {
				name = fmt.Sprintf("col_%d", i)
			}
		}
		projs = append(projs, Proj{Expr: se, Name: uniqueName(name)})
	}
	plan, err = newProject(plan, projs)
	if err != nil {
		return nil, err
	}

	if q.Distinct {
		plan = NewNode(Node{Kind: KindDistinct, Children: []*Node{plan}}, plan.Schema())
	}

	// 10. ORDER BY over the projected schema.
	if len(q.OrderBy) > 0 {
		var keys []SortKey
		for i, o := range q.OrderBy {
			oe := cv.order[i]
			if oe == nil {
				// Select-alias reference.
				name := o.Expr.(*sqlparser.Ident).Name
				if !plan.Schema().Has(name) {
					return nil, fmt.Errorf("logical: ORDER BY alias %q not in output", name)
				}
				keys = append(keys, SortKey{Expr: &expr.ColRef{Name: name}, Desc: o.Desc})
				continue
			}
			if grouped {
				oe, err = replaceAgg(oe, aliasByCanon, nil)
				if err != nil {
					return nil, fmt.Errorf("logical: ORDER BY: %w", err)
				}
			}
			key, err := resolveOrderKey(oe, o, projs, plan.Schema())
			if err != nil {
				return nil, err
			}
			keys = append(keys, SortKey{Expr: key, Desc: o.Desc})
		}
		plan = NewNode(Node{Kind: KindSort, Children: []*Node{plan}, SortKeys: keys}, plan.Schema())
	}

	if q.Limit >= 0 {
		plan = NewNode(Node{Kind: KindLimit, Children: []*Node{plan}, LimitN: q.Limit}, plan.Schema())
	}
	return plan, nil
}

func literalValue(l *sqlparser.Literal) storage.Value {
	switch v := l.Value.(type) {
	case nil:
		return storage.Null
	case int64:
		return storage.IntValue(v)
	case float64:
		return storage.FloatValue(v)
	case string:
		return storage.StringValue(v)
	case bool:
		return storage.BoolValue(v)
	default:
		return storage.Null
	}
}

// buildLogLeaf makes Scan -> Extract for a base log with all of the log's
// fields in sorted order, followed by any hoisted UDF fields. Extraction is
// deliberately wide: the SerDe parses the whole JSON record regardless, so
// extracting every declared field costs little — and it keeps extract
// signatures identical across queries, which is what lets opportunistic
// views from one query version answer the next version's plan even when it
// references fields the earlier query did not.
func buildLogLeaf(e *tableEntry) (*Node, error) {
	fields := make([]string, 0, e.log.FieldTypes.Len())
	for _, c := range e.log.FieldTypes.Columns {
		fields = append(fields, c.Name)
	}
	sort.Strings(fields)
	scan := NewNode(Node{Kind: KindScan, LogName: e.log.Name},
		storage.MustSchema(storage.Column{Name: "_raw", Type: storage.KindString}))
	ex := Node{Kind: KindExtract, Children: []*Node{scan}}
	cols := make([]storage.Column, 0, len(fields)+len(e.udfCols))
	for _, f := range fields {
		i := e.log.FieldTypes.Index(f)
		if i < 0 {
			return nil, fmt.Errorf("logical: log %q has no field %q", e.log.Name, f)
		}
		out := e.qualified(f)
		ex.Fields = append(ex.Fields, ExtractField{
			LogField: f, OutName: out, Type: e.log.FieldTypes.Columns[i].Type,
		})
		cols = append(cols, storage.Column{Name: out, Type: e.log.FieldTypes.Columns[i].Type})
	}
	plainSchema, err := storage.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	udfNames := make([]string, 0, len(e.udfCols))
	for n := range e.udfCols {
		udfNames = append(udfNames, n)
	}
	sort.Strings(udfNames)
	for _, name := range udfNames {
		f := e.udfCols[name]
		t, err := expr.TypeOf(f, plainSchema)
		if err != nil {
			return nil, fmt.Errorf("logical: UDF column %q: %w", name, err)
		}
		ex.Fields = append(ex.Fields, ExtractField{OutName: name, Type: t, UDF: f})
		cols = append(cols, storage.Column{Name: name, Type: t})
	}
	sch, err := storage.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	return NewNode(ex, sch), nil
}

// hoistUDFs rewrites UDF calls whose column inputs all come from one base
// log into column references over that log's extract, registering the
// computed field on the entry. Calls that span tables, reference derived
// tables, or reference no columns are left in place (they stay pinned to
// HV).
func hoistUDFs(e expr.Expr, entries []*tableEntry, byQual map[string]*tableEntry) expr.Expr {
	switch v := e.(type) {
	case *expr.ColRef, *expr.Const:
		return e
	case *expr.BinOp:
		return &expr.BinOp{Op: v.Op,
			L: hoistUDFs(v.L, entries, byQual), R: hoistUDFs(v.R, entries, byQual)}
	case *expr.Not:
		return &expr.Not{E: hoistUDFs(v.E, entries, byQual)}
	case *expr.Neg:
		return &expr.Neg{E: hoistUDFs(v.E, entries, byQual)}
	case *expr.IsNull:
		return &expr.IsNull{E: hoistUDFs(v.E, entries, byQual), Neg: v.Neg}
	case *expr.In:
		items := make([]expr.Expr, len(v.Items))
		for i, it := range v.Items {
			items[i] = hoistUDFs(it, entries, byQual)
		}
		return &expr.In{E: hoistUDFs(v.E, entries, byQual), Items: items, Neg: v.Neg}
	case *expr.Func:
		args := make([]expr.Expr, len(v.Args))
		for i, a := range v.Args {
			args[i] = hoistUDFs(a, entries, byQual)
		}
		f := &expr.Func{Name: v.Name, Args: args}
		if !f.IsUDF() {
			return f
		}
		ent := singleLogEntryOf(f, byQual)
		if ent == nil {
			return f
		}
		name := ent.qual + ".__" + strings.ToLower(f.Name) + "_" + shortHash(f.Canon())
		ent.udfCols[name] = f
		return &expr.ColRef{Name: name}
	default:
		return e
	}
}

// singleLogEntryOf returns the base-log entry owning every column the
// expression references, or nil.
func singleLogEntryOf(e expr.Expr, byQual map[string]*tableEntry) *tableEntry {
	cols := expr.Columns(e)
	if len(cols) == 0 {
		return nil
	}
	var ent *tableEntry
	for _, col := range cols {
		qual, _, ok := strings.Cut(col, ".")
		if !ok {
			return nil
		}
		q, found := byQual[qual]
		if !found || !q.isLog {
			return nil
		}
		if ent == nil {
			ent = q
		} else if ent != q {
			return nil
		}
	}
	return ent
}

func shortHash(s string) string {
	h := fnv.New32a()
	h.Write([]byte(s))
	return fmt.Sprintf("%08x", h.Sum32())
}

// pruneColumns narrows a derived table's qualifying projection to the
// columns the outer query needs.
func pruneColumns(plan *Node, e *tableEntry, keepAll bool) (*Node, error) {
	if keepAll || plan.Kind != KindProject {
		return plan, nil
	}
	var kept []Proj
	for _, p := range plan.Projs {
		if e.needed[strings.TrimPrefix(p.Name, e.alias+".")] {
			kept = append(kept, p)
		}
	}
	if len(kept) == 0 || len(kept) == len(plan.Projs) {
		return plan, nil
	}
	return newProject(plan.Children[0], kept)
}

// singleAliasOf returns the entry if every column in c belongs to exactly
// one alias, else nil.
func singleAliasOf(c expr.Expr, byAlias map[string]*tableEntry) *tableEntry {
	cols := expr.Columns(c)
	if len(cols) == 0 {
		return nil
	}
	var e *tableEntry
	for _, col := range cols {
		alias, _, ok := strings.Cut(col, ".")
		if !ok {
			return nil
		}
		ent, found := byAlias[alias]
		if !found {
			return nil
		}
		if e == nil {
			e = ent
		} else if e != ent {
			return nil
		}
	}
	return e
}

// equiKey matches "leftCol = rightCol" conjuncts for the join of the
// accumulated left side against rightAlias.
func equiKey(c expr.Expr, joined map[string]bool, rightAlias string) (string, string, bool) {
	b, ok := c.(*expr.BinOp)
	if !ok || b.Op != "=" {
		return "", "", false
	}
	lc, lok := b.L.(*expr.ColRef)
	rc, rok := b.R.(*expr.ColRef)
	if !lok || !rok {
		return "", "", false
	}
	side := func(name string) (string, bool) {
		alias, _, ok := strings.Cut(name, ".")
		if !ok {
			return "", false
		}
		return alias, true
	}
	la, ok1 := side(lc.Name)
	ra, ok2 := side(rc.Name)
	if !ok1 || !ok2 {
		return "", "", false
	}
	switch {
	case joined[la] && ra == rightAlias:
		return lc.Name, rc.Name, true
	case joined[ra] && la == rightAlias:
		return rc.Name, lc.Name, true
	default:
		return "", "", false
	}
}

// collectAggCalls gathers aggregate calls from SELECT, HAVING and ORDER BY.
func collectAggCalls(q *sqlparser.Query) []*sqlparser.Call {
	var out []*sqlparser.Call
	grab := func(e sqlparser.Expr) {
		if e == nil {
			return
		}
		var walk func(sqlparser.Expr)
		walk = func(x sqlparser.Expr) {
			switch v := x.(type) {
			case *sqlparser.Call:
				if expr.IsAggregateName(v.Name) {
					out = append(out, v)
					return // no nested aggregates
				}
				for _, a := range v.Args {
					walk(a)
				}
			case *sqlparser.Binary:
				walk(v.Left)
				walk(v.Right)
			case *sqlparser.Unary:
				walk(v.Expr)
			case *sqlparser.IsNull:
				walk(v.Expr)
			case *sqlparser.InList:
				walk(v.Expr)
				for _, it := range v.Items {
					walk(it)
				}
			}
		}
		walk(e)
	}
	for _, s := range q.Select {
		grab(s.Expr)
	}
	grab(q.Having)
	for _, o := range q.OrderBy {
		grab(o.Expr)
	}
	return out
}

func makeAggSpec(call *sqlparser.Call, convert func(sqlparser.Expr, bool) (expr.Expr, error)) (AggSpec, error) {
	spec := AggSpec{Func: call.Name, Star: call.Star, Distinct: call.Distinct}
	if call.Star {
		return spec, nil
	}
	if len(call.Args) != 1 {
		return AggSpec{}, fmt.Errorf("logical: %s takes one argument", call.Name)
	}
	arg, err := convert(call.Args[0], false)
	if err != nil {
		return AggSpec{}, err
	}
	spec.Arg = arg
	return spec, nil
}

func groupName(ge expr.Expr, idx int) string {
	if c, ok := ge.(*expr.ColRef); ok {
		return c.Name
	}
	return fmt.Sprintf("grp_%d", idx)
}

func baseName(qualified string) string {
	if _, b, ok := strings.Cut(qualified, "."); ok {
		return b
	}
	return qualified
}

// replaceAgg rewrites a pre-aggregation expression into one over the
// aggregate's output schema, substituting aggregate calls and grouping
// expressions by their output columns. aliasByCanon maps canonical pre-agg
// expressions to output column names. If sch is non-nil, any leftover
// column reference must exist in it.
func replaceAgg(e expr.Expr, aliasByCanon map[string]string, sch *storage.Schema) (expr.Expr, error) {
	if name, ok := aliasByCanon[e.Canon()]; ok {
		return &expr.ColRef{Name: name}, nil
	}
	switch v := e.(type) {
	case *expr.ColRef:
		if sch != nil && !sch.Has(v.Name) {
			return nil, fmt.Errorf("column %q is neither grouped nor aggregated", v.Name)
		}
		return v, nil
	case *expr.Const:
		return v, nil
	case *expr.BinOp:
		l, err := replaceAgg(v.L, aliasByCanon, sch)
		if err != nil {
			return nil, err
		}
		r, err := replaceAgg(v.R, aliasByCanon, sch)
		if err != nil {
			return nil, err
		}
		return &expr.BinOp{Op: v.Op, L: l, R: r}, nil
	case *expr.Not:
		in, err := replaceAgg(v.E, aliasByCanon, sch)
		if err != nil {
			return nil, err
		}
		return &expr.Not{E: in}, nil
	case *expr.Neg:
		in, err := replaceAgg(v.E, aliasByCanon, sch)
		if err != nil {
			return nil, err
		}
		return &expr.Neg{E: in}, nil
	case *expr.IsNull:
		in, err := replaceAgg(v.E, aliasByCanon, sch)
		if err != nil {
			return nil, err
		}
		return &expr.IsNull{E: in, Neg: v.Neg}, nil
	case *expr.In:
		in, err := replaceAgg(v.E, aliasByCanon, sch)
		if err != nil {
			return nil, err
		}
		items := make([]expr.Expr, len(v.Items))
		for i, it := range v.Items {
			items[i], err = replaceAgg(it, aliasByCanon, sch)
			if err != nil {
				return nil, err
			}
		}
		return &expr.In{E: in, Items: items, Neg: v.Neg}, nil
	case *expr.Func:
		args := make([]expr.Expr, len(v.Args))
		for i, a := range v.Args {
			na, err := replaceAgg(a, aliasByCanon, sch)
			if err != nil {
				return nil, err
			}
			args[i] = na
		}
		return &expr.Func{Name: v.Name, Args: args}, nil
	default:
		return e, nil
	}
}

// resolveOrderKey maps an ORDER BY expression onto the projected output
// schema: by alias, by projected expression identity, or directly if its
// columns already exist in the output.
func resolveOrderKey(oe expr.Expr, o sqlparser.OrderItem, projs []Proj, sch *storage.Schema) (expr.Expr, error) {
	// Direct alias reference?
	if id, ok := o.Expr.(*sqlparser.Ident); ok && id.Qualifier == "" && sch.Has(id.Name) {
		return &expr.ColRef{Name: id.Name}, nil
	}
	// Matches a projected expression?
	canon := oe.Canon()
	for _, p := range projs {
		if p.Expr.Canon() == canon {
			return &expr.ColRef{Name: p.Name}, nil
		}
	}
	// Usable as-is over the output schema?
	ok := true
	for _, c := range expr.Columns(oe) {
		if !sch.Has(c) {
			ok = false
			break
		}
	}
	if ok {
		return oe, nil
	}
	return nil, fmt.Errorf("logical: ORDER BY expression %s not derivable from the select list", o.Expr.SQL())
}

// --- Node constructors with schema computation ---

func newFilter(child *Node, pred expr.Expr) (*Node, error) {
	if _, err := expr.TypeOf(pred, child.Schema()); err != nil {
		return nil, err
	}
	return NewNode(Node{Kind: KindFilter, Children: []*Node{child}, Pred: pred}, child.Schema()), nil
}

func newProject(child *Node, projs []Proj) (*Node, error) {
	cols := make([]storage.Column, len(projs))
	for i, p := range projs {
		t, err := expr.TypeOf(p.Expr, child.Schema())
		if err != nil {
			return nil, err
		}
		cols[i] = storage.Column{Name: p.Name, Type: t}
	}
	sch, err := storage.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	return NewNode(Node{Kind: KindProject, Children: []*Node{child}, Projs: projs}, sch), nil
}

func newJoin(l, r *Node, jt JoinType, leftKeys, rightKeys []string) (*Node, error) {
	for _, k := range leftKeys {
		if !l.Schema().Has(k) {
			return nil, fmt.Errorf("logical: join key %q not in left schema %s", k, l.Schema())
		}
	}
	for _, k := range rightKeys {
		if !r.Schema().Has(k) {
			return nil, fmt.Errorf("logical: join key %q not in right schema %s", k, r.Schema())
		}
	}
	sch, err := l.Schema().Concat(r.Schema(), "r_")
	if err != nil {
		return nil, err
	}
	return NewNode(Node{
		Kind: KindJoin, Children: []*Node{l, r},
		JoinType: jt, LeftKeys: leftKeys, RightKeys: rightKeys,
	}, sch), nil
}

func newAggregate(child *Node, groups []Proj, aggs []AggSpec) (*Node, error) {
	cols := make([]storage.Column, 0, len(groups)+len(aggs))
	for _, g := range groups {
		t, err := expr.TypeOf(g.Expr, child.Schema())
		if err != nil {
			return nil, err
		}
		cols = append(cols, storage.Column{Name: g.Name, Type: t})
	}
	for _, a := range aggs {
		var t storage.Kind
		switch a.Func {
		case "COUNT":
			t = storage.KindInt
		case "AVG":
			t = storage.KindFloat
		case "SUM", "MIN", "MAX":
			var err error
			if a.Star {
				return nil, fmt.Errorf("logical: %s(*) is not valid", a.Func)
			}
			t, err = expr.TypeOf(a.Arg, child.Schema())
			if err != nil {
				return nil, err
			}
			if a.Func == "SUM" && t == storage.KindBool {
				t = storage.KindInt
			}
		default:
			return nil, fmt.Errorf("logical: unknown aggregate %q", a.Func)
		}
		if !a.Star {
			if _, err := expr.TypeOf(a.Arg, child.Schema()); err != nil {
				return nil, err
			}
		}
		cols = append(cols, storage.Column{Name: a.Name, Type: t})
	}
	sch, err := storage.NewSchema(cols...)
	if err != nil {
		return nil, err
	}
	return NewNode(Node{Kind: KindAggregate, Children: []*Node{child}, GroupBy: groups, Aggs: aggs}, sch), nil
}

// NewViewScan builds a leaf that reads a materialized view.
func NewViewScan(name string, sch *storage.Schema) *Node {
	return NewNode(Node{Kind: KindViewScan, ViewName: name, ViewSchema: sch}, sch)
}

// NewFilterNode exposes filter construction for plan rewrites.
func NewFilterNode(child *Node, pred expr.Expr) (*Node, error) { return newFilter(child, pred) }

// NewProjectNode exposes projection construction for plan rewrites.
func NewProjectNode(child *Node, projs []Proj) (*Node, error) { return newProject(child, projs) }
