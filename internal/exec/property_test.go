package exec_test

import (
	"fmt"
	"math/rand"
	"testing"

	"miso/internal/data"
	"miso/internal/exec"
	"miso/internal/expr"
	"miso/internal/logical"
	"miso/internal/storage"
)

// TestGroupCountsPartitionRows: for any grouping column, the group counts
// must sum to the filtered row count — a conservation property across the
// filter and aggregate operators.
func TestGroupCountsPartitionRows(t *testing.T) {
	cat, env := testEnv(t)
	rng := rand.New(rand.NewSource(11))
	groupCols := []string{"lang", "hashtag", "user_id"}
	for trial := 0; trial < 10; trial++ {
		col := groupCols[rng.Intn(len(groupCols))]
		threshold := rng.Intn(400)
		grouped := run(t, cat, env, fmt.Sprintf(
			"SELECT %s, COUNT(*) AS n FROM tweets WHERE retweets > %d GROUP BY %s",
			col, threshold, col))
		flat := run(t, cat, env, fmt.Sprintf(
			"SELECT tweet_id FROM tweets WHERE retweets > %d", threshold))
		var sum int64
		for _, r := range grouped.Rows {
			sum += r[1].I
		}
		if sum != int64(flat.NumRows()) {
			t.Fatalf("col=%s thr=%d: group counts sum to %d, rows = %d",
				col, threshold, sum, flat.NumRows())
		}
	}
}

// TestJoinCountMatchesKeyHistogram: |A join B on k| must equal the sum over
// key values of countA(k)*countB(k).
func TestJoinCountMatchesKeyHistogram(t *testing.T) {
	cat, env := testEnv(t)
	joined := run(t, cat, env,
		"SELECT t.tweet_id FROM tweets t JOIN checkins c ON t.user_id = c.user_id")
	ta := run(t, cat, env, "SELECT user_id, COUNT(*) AS n FROM tweets GROUP BY user_id")
	tb := run(t, cat, env, "SELECT user_id, COUNT(*) AS n FROM checkins GROUP BY user_id")
	counts := map[int64]int64{}
	for _, r := range tb.Rows {
		counts[r[0].I] = r[1].I
	}
	var want int64
	for _, r := range ta.Rows {
		want += r[1].I * counts[r[0].I]
	}
	if int64(joined.NumRows()) != want {
		t.Fatalf("join rows = %d, histogram product = %d", joined.NumRows(), want)
	}
}

// TestFilterMonotone: strengthening a predicate never adds rows.
func TestFilterMonotone(t *testing.T) {
	cat, env := testEnv(t)
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 10; trial++ {
		lo := rng.Intn(300)
		hi := lo + rng.Intn(200)
		weak := run(t, cat, env, fmt.Sprintf(
			"SELECT tweet_id FROM tweets WHERE retweets > %d", lo))
		strong := run(t, cat, env, fmt.Sprintf(
			"SELECT tweet_id FROM tweets WHERE retweets > %d AND lang = 'en'", lo))
		stronger := run(t, cat, env, fmt.Sprintf(
			"SELECT tweet_id FROM tweets WHERE retweets > %d AND lang = 'en'", hi))
		if strong.NumRows() > weak.NumRows() {
			t.Fatalf("adding a conjunct added rows (%d > %d)", strong.NumRows(), weak.NumRows())
		}
		if stronger.NumRows() > strong.NumRows() {
			t.Fatalf("raising the threshold added rows")
		}
	}
}

// TestLimitAndSortAgree: LIMIT k after ORDER BY returns the true top-k.
func TestLimitAndSortAgree(t *testing.T) {
	cat, env := testEnv(t)
	full := run(t, cat, env,
		"SELECT tweet_id, retweets FROM tweets ORDER BY retweets DESC, tweet_id ASC")
	top := run(t, cat, env,
		"SELECT tweet_id, retweets FROM tweets ORDER BY retweets DESC, tweet_id ASC LIMIT 7")
	if top.NumRows() != 7 {
		t.Fatalf("limit rows = %d", top.NumRows())
	}
	for i := range top.Rows {
		if !storage.Equal(top.Rows[i][0], full.Rows[i][0]) {
			t.Fatalf("row %d: limit gave %v, full order gives %v",
				i, top.Rows[i][0], full.Rows[i][0])
		}
	}
}

// TestAvgConsistentWithSumCount: AVG == SUM/COUNT per group.
func TestAvgConsistentWithSumCount(t *testing.T) {
	cat, env := testEnv(t)
	out := run(t, cat, env, `SELECT lang, AVG(retweets) AS a, SUM(retweets) AS s,
		COUNT(retweets) AS c FROM tweets GROUP BY lang`)
	for _, r := range out.Rows {
		avg := r[1].F
		sum, _ := r[2].AsFloat()
		cnt := float64(r[3].I)
		if cnt == 0 {
			continue
		}
		if diff := avg - sum/cnt; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("lang %v: AVG %.6f != SUM/COUNT %.6f", r[0], avg, sum/cnt)
		}
	}
}

// TestViewRewriteEquivalenceOverWorkloadPrefix executes query pairs with
// and without view rewriting at the engine level: the hv store's rewrite
// path is covered by package hv; here we assert plain plan execution is
// deterministic across runs.
func TestExecutionDeterminism(t *testing.T) {
	cat, env := testEnv(t)
	sql := `SELECT l.city, COUNT(*) AS n FROM checkins c
		JOIN landmarks l ON c.venue_id = l.venue_id
		GROUP BY l.city ORDER BY n DESC, city ASC`
	a := run(t, cat, env, sql)
	b := run(t, cat, env, sql)
	if a.NumRows() != b.NumRows() {
		t.Fatal("row counts differ across identical runs")
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if !storage.Equal(a.Rows[i][j], b.Rows[i][j]) {
				t.Fatalf("row %d col %d differs", i, j)
			}
		}
	}
}

// --- Columnar-vs-serial randomized equivalence ------------------------------
//
// The columnar batch path (typed vectors, selection vectors, fused
// Filter/Project/Aggregate chains) must be digest-identical to the
// row-at-a-time reference operators for EVERY operator over arbitrary data: random
// schemas, random null density, off-kind values that degrade vectors to
// generic storage, every batch size. These tests are the enforcement of
// that contract.

var propKinds = []storage.Kind{storage.KindInt, storage.KindFloat, storage.KindString, storage.KindBool}

// propValue draws a random value of kind k, NULL with probability nullDen,
// and (in mixed mode) occasionally an off-kind value — the reference operators is
// dynamically typed, so the columnar path must tolerate values that do not
// match the declared column type.
func propValue(rng *rand.Rand, k storage.Kind, nullDen float64, mixed bool) storage.Value {
	if rng.Float64() < nullDen {
		return storage.Null
	}
	if mixed && rng.Intn(12) == 0 {
		k = propKinds[rng.Intn(len(propKinds))]
	}
	switch k {
	case storage.KindInt:
		return storage.IntValue(int64(rng.Intn(200) - 100))
	case storage.KindFloat:
		switch rng.Intn(10) {
		case 0:
			return storage.FloatValue(0.0 * float64(1-2*rng.Intn(2))) // ±0.0
		default:
			return storage.FloatValue(float64(rng.Intn(2000)-1000) / 8)
		}
	case storage.KindString:
		words := []string{"a", "ab", "abc", "7", "-3.5", "en", "fr", "", "zz"}
		return storage.StringValue(words[rng.Intn(len(words))])
	default:
		return storage.BoolValue(rng.Intn(2) == 0)
	}
}

// propTable builds a random table: 2-5 columns of random kinds, up to ~400
// rows, a drawn null density, and (half the time) off-kind values.
func propTable(rng *rand.Rand, name, colPrefix string) *storage.Table {
	nCols := 2 + rng.Intn(4)
	cols := make([]storage.Column, nCols)
	for i := range cols {
		cols[i] = storage.Column{
			Name: fmt.Sprintf("%s%d", colPrefix, i),
			Type: propKinds[rng.Intn(len(propKinds))],
		}
	}
	schema, err := storage.NewSchema(cols...)
	if err != nil {
		panic(err)
	}
	nullDen := []float64{0, 0.05, 0.25, 0.6}[rng.Intn(4)]
	mixed := rng.Intn(2) == 0
	nRows := rng.Intn(400)
	t := storage.NewTable(name, schema)
	for i := 0; i < nRows; i++ {
		row := make(storage.Row, nCols)
		for c := range row {
			row[c] = propValue(rng, cols[c].Type, nullDen, mixed)
		}
		t.MustAppend(row)
	}
	return t
}

func propCol(rng *rand.Rand, s *storage.Schema) storage.Column {
	return s.Columns[rng.Intn(len(s.Columns))]
}

// propScalar draws a random scalar expression over s's columns.
func propScalar(rng *rand.Rand, s *storage.Schema, depth int) expr.Expr {
	if depth <= 0 || rng.Intn(3) == 0 {
		if rng.Intn(3) > 0 {
			return &expr.ColRef{Name: propCol(rng, s).Name}
		}
		return &expr.Const{Val: propValue(rng, propKinds[rng.Intn(len(propKinds))], 0.15, false)}
	}
	switch rng.Intn(4) {
	case 0:
		ops := []string{"+", "-", "*", "/", "%"}
		return &expr.BinOp{Op: ops[rng.Intn(len(ops))],
			L: propScalar(rng, s, depth-1), R: propScalar(rng, s, depth-1)}
	case 1:
		return &expr.Neg{E: propScalar(rng, s, depth-1)}
	default:
		return propPred(rng, s, depth-1)
	}
}

// propPred draws a random predicate covering every batch kernel family:
// comparisons (including const-side specializations), 3-valued AND/OR, NOT,
// IS [NOT] NULL, [NOT] IN, LIKE, and bare scalars used as truth values.
func propPred(rng *rand.Rand, s *storage.Schema, depth int) expr.Expr {
	if depth <= 0 {
		return &expr.BinOp{Op: ">", L: propScalar(rng, s, 0), R: propScalar(rng, s, 0)}
	}
	switch rng.Intn(7) {
	case 0:
		ops := []string{"=", "!=", "<", "<=", ">", ">="}
		return &expr.BinOp{Op: ops[rng.Intn(len(ops))],
			L: propScalar(rng, s, depth-1), R: propScalar(rng, s, depth-1)}
	case 1:
		ops := []string{"AND", "OR"}
		return &expr.BinOp{Op: ops[rng.Intn(2)],
			L: propPred(rng, s, depth-1), R: propPred(rng, s, depth-1)}
	case 2:
		return &expr.Not{E: propPred(rng, s, depth-1)}
	case 3:
		return &expr.IsNull{E: propScalar(rng, s, depth-1), Neg: rng.Intn(2) == 0}
	case 4:
		items := make([]expr.Expr, 1+rng.Intn(3))
		for i := range items {
			items[i] = &expr.Const{Val: propValue(rng, propKinds[rng.Intn(len(propKinds))], 0.1, false)}
		}
		return &expr.In{E: propScalar(rng, s, depth-1), Items: items, Neg: rng.Intn(2) == 0}
	case 5:
		pats := []string{"%a%", "a%", "%b", "_b%", "%", "abc"}
		return &expr.BinOp{Op: "LIKE", L: propScalar(rng, s, depth-1),
			R: &expr.Const{Val: storage.StringValue(pats[rng.Intn(len(pats))])}}
	default:
		return propScalar(rng, s, depth-1) // bare scalar truthiness
	}
}

// propProjs draws n random projections with declared output types.
func propProjs(rng *rand.Rand, s *storage.Schema, prefix string, n int) ([]logical.Proj, *storage.Schema) {
	projs := make([]logical.Proj, n)
	cols := make([]storage.Column, n)
	for i := range projs {
		e := propScalar(rng, s, 2)
		projs[i] = logical.Proj{Expr: e, Name: fmt.Sprintf("%s%d", prefix, i)}
		k, err := expr.TypeOf(e, s)
		if err != nil {
			k = storage.KindNull
		}
		cols[i] = storage.Column{Name: projs[i].Name, Type: k}
	}
	return projs, &storage.Schema{Columns: cols}
}

// propAggregate builds a random Aggregate node (possibly global) over child.
func propAggregate(rng *rand.Rand, child *logical.Node) *logical.Node {
	s := child.Schema()
	var groupBy []logical.Proj
	var cols []storage.Column
	for i := 0; i < rng.Intn(3); i++ {
		name := fmt.Sprintf("g%d", i)
		var ge expr.Expr
		var k storage.Kind
		if rng.Intn(3) == 0 {
			// Expression group key: exercises the non-ColRef aggregation
			// path, where keys are batch-evaluated and scattered into the
			// key cache rather than read straight from input rows.
			ge = propScalar(rng, s, 1)
			var err error
			if k, err = expr.TypeOf(ge, s); err != nil {
				k = storage.KindNull
			}
		} else {
			c := propCol(rng, s)
			ge = &expr.ColRef{Name: c.Name}
			k = c.Type
		}
		groupBy = append(groupBy, logical.Proj{Expr: ge, Name: name})
		cols = append(cols, storage.Column{Name: name, Type: k})
	}
	funcs := []string{"COUNT", "SUM", "AVG", "MIN", "MAX"}
	aggs := make([]logical.AggSpec, 1+rng.Intn(3))
	for i := range aggs {
		f := funcs[rng.Intn(len(funcs))]
		name := fmt.Sprintf("a%d", i)
		spec := logical.AggSpec{Func: f, Name: name}
		if f == "COUNT" && rng.Intn(2) == 0 {
			spec.Star = true
		} else {
			spec.Arg = propScalar(rng, s, 1)
			spec.Distinct = rng.Intn(4) == 0
		}
		aggs[i] = spec
		k := storage.KindFloat
		if f == "COUNT" {
			k = storage.KindInt
		}
		cols = append(cols, storage.Column{Name: name, Type: k})
	}
	return logical.NewNode(logical.Node{Kind: logical.KindAggregate, Children: []*logical.Node{child},
		GroupBy: groupBy, Aggs: aggs}, &storage.Schema{Columns: cols})
}

// propEnv wires an Env that resolves the given tables as views.
func propEnv(tables map[string]*storage.Table, workers, morselRows int) *exec.Env {
	return &exec.Env{
		ReadView: func(name string) (*storage.Table, error) {
			t, ok := tables[name]
			if !ok {
				return nil, fmt.Errorf("no view %q", name)
			}
			return t, nil
		},
		Workers:    workers,
		MorselRows: morselRows,
	}
}

// TestColumnarMatchesSerialRandomized is the seeded equivalence fuzz for
// the columnar batch path: for every operator (and fused chains), random
// plans over random tables must produce digest-identical outputs across
// the reference operators and the morsel engine at several worker counts and
// batch sizes.
func TestColumnarMatchesSerialRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(987))
	for trial := 0; trial < 20; trial++ {
		left := propTable(rng, "L", "a")
		right := propTable(rng, "R", "b")
		tables := map[string]*storage.Table{"L": left, "R": right}
		scanL := func() *logical.Node { return logical.NewViewScan("L", left.Schema) }
		scanR := func() *logical.Node { return logical.NewViewScan("R", right.Schema) }

		var plans []*logical.Node

		// Filter.
		f := logical.NewNode(logical.Node{Kind: logical.KindFilter, Children: []*logical.Node{scanL()},
			Pred: propPred(rng, left.Schema, 3)}, left.Schema)
		plans = append(plans, f)

		// Project.
		projs, ps := propProjs(rng, left.Schema, "p", 1+rng.Intn(3))
		p := logical.NewNode(logical.Node{Kind: logical.KindProject, Children: []*logical.Node{scanL()}, Projs: projs}, ps)
		plans = append(plans, p)

		// Aggregate (grouped or global).
		plans = append(plans, propAggregate(rng, scanL()))

		// Distinct.
		d := logical.NewNode(logical.Node{Kind: logical.KindDistinct, Children: []*logical.Node{scanL()}}, left.Schema)
		plans = append(plans, d)

		// Sort (full-row tie-break makes any key set deterministic).
		nk := 1 + rng.Intn(2)
		keys := make([]logical.SortKey, nk)
		for i := range keys {
			keys[i] = logical.SortKey{Expr: &expr.ColRef{Name: propCol(rng, left.Schema).Name},
				Desc: rng.Intn(2) == 0}
		}
		srt := logical.NewNode(logical.Node{Kind: logical.KindSort, Children: []*logical.Node{scanL()}, SortKeys: keys}, left.Schema)
		plans = append(plans, srt)

		// Join on same-kind key columns when the tables share one.
		for _, lc := range left.Schema.Columns {
			var rKey string
			for _, rc := range right.Schema.Columns {
				if rc.Type == lc.Type {
					rKey = rc.Name
					break
				}
			}
			if rKey == "" {
				continue
			}
			jt := logical.JoinInner
			if rng.Intn(3) == 0 {
				jt = logical.JoinLeft
			}
			j := logical.NewNode(logical.Node{Kind: logical.KindJoin,
				Children: []*logical.Node{scanL(), scanR()},
				JoinType: jt, LeftKeys: []string{lc.Name}, RightKeys: []string{rKey}},
				&storage.Schema{Columns: append(
					append([]storage.Column{}, left.Schema.Columns...), right.Schema.Columns...)})
			plans = append(plans, j)
			break
		}

		// Fused chain: Filter → Project → Filter (→ Aggregate half the time),
		// exercised through exec.Run's fusion hook.
		cf := logical.NewNode(logical.Node{Kind: logical.KindFilter, Children: []*logical.Node{scanL()},
			Pred: propPred(rng, left.Schema, 2)}, left.Schema)
		cprojs, cps := propProjs(rng, left.Schema, "q", 2)
		cp := logical.NewNode(logical.Node{Kind: logical.KindProject, Children: []*logical.Node{cf}, Projs: cprojs}, cps)
		chain := logical.NewNode(logical.Node{Kind: logical.KindFilter, Children: []*logical.Node{cp},
			Pred: propPred(rng, cps, 2)}, cps)
		if rng.Intn(2) == 0 {
			plans = append(plans, propAggregate(rng, chain))
		} else {
			plans = append(plans, chain)
		}

		for pi, plan := range plans {
			serial, err := exec.RunReference(plan, propEnv(tables, 0, 0))
			if err != nil {
				t.Fatalf("trial %d plan %d (%s): serial: %v", trial, pi, plan.Kind, err)
			}
			want := storage.ChecksumTable(serial)
			for _, workers := range []int{1, 3, 4} {
				for _, mr := range []int{0, 1, 13, 256} {
					got, err := exec.Run(plan, propEnv(tables, workers, mr))
					if err != nil {
						t.Fatalf("trial %d plan %d (%s) w=%d mr=%d: %v",
							trial, pi, plan.Kind, workers, mr, err)
					}
					if g := storage.ChecksumTable(got); g != want {
						t.Fatalf("trial %d plan %d (%s) w=%d mr=%d: digest %x != serial %x (rows %d vs %d)",
							trial, pi, plan.Kind, workers, mr, g, want, got.NumRows(), serial.NumRows())
					}
				}
			}
		}
	}
}

// TestMalformedRecordsSkipped: the SerDe tolerates broken JSON lines.
func TestMalformedRecordsSkipped(t *testing.T) {
	cat, err := data.Generate(data.SmallConfig())
	if err != nil {
		t.Fatal(err)
	}
	log, _ := cat.Log(data.TweetsLog)
	before := log.NumLines()
	log.AppendLine("{not json at all")
	log.AppendLine(`{"tweet_id": "also-not-an-int"}`)
	env := &exec.Env{ReadLog: func(name string) (*storage.LogFile, error) { return cat.Log(name) }}
	plan, err := logical.NewBuilder(cat).BuildSQL("SELECT tweet_id FROM tweets")
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Run(plan, env)
	if err != nil {
		t.Fatal(err)
	}
	// The broken JSON line is skipped; the mistyped record extracts with
	// a NULL tweet_id.
	if out.NumRows() != before+1 {
		t.Fatalf("rows = %d, want %d", out.NumRows(), before+1)
	}
	sawNull := false
	for _, r := range out.Rows {
		if r[0].IsNull() {
			sawNull = true
		}
	}
	if !sawNull {
		t.Error("mistyped field should extract as NULL")
	}
}
