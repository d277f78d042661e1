package miso_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"miso/miso"
)

func TestOpenAndRun(t *testing.T) {
	sys, err := miso.Open(miso.DefaultConfig(miso.MSMiso), miso.SmallData())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sys.Run(`SELECT hashtag, COUNT(*) AS n FROM tweets
		WHERE lang = 'en' GROUP BY hashtag ORDER BY n DESC LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ResultRows == 0 || rep.ResultRows > 3 {
		t.Errorf("rows = %d", rep.ResultRows)
	}
	if rep.Total() <= 0 {
		t.Error("no simulated time charged")
	}
	m := sys.Metrics()
	if m.Queries != 1 || m.TTI() <= 0 {
		t.Errorf("metrics = %+v", m)
	}
}

func TestOpenAppliesDefaultBudgets(t *testing.T) {
	cfg := miso.DefaultConfig(miso.MSMiso)
	sys, err := miso.Open(cfg, miso.SmallData())
	if err != nil {
		t.Fatal(err)
	}
	// Budgets were zero in cfg; Open must have applied paper defaults, so
	// running the workload with reorganizations must not fail.
	for _, sql := range []string{
		"SELECT lang, COUNT(*) AS n FROM tweets GROUP BY lang",
		"SELECT lang, COUNT(*) AS n FROM tweets WHERE retweets > 10 GROUP BY lang",
	} {
		if _, err := sys.Run(sql); err != nil {
			t.Fatal(err)
		}
	}
}

func TestVariantConstantsRoundtrip(t *testing.T) {
	for _, v := range []miso.Variant{
		miso.HVOnly, miso.DWOnly, miso.MSBasic, miso.HVOp,
		miso.MSMiso, miso.MSOff, miso.MSLru, miso.MSOra,
	} {
		if _, err := miso.Open(miso.DefaultConfig(v), miso.SmallData()); err != nil {
			t.Errorf("%s: %v", v, err)
		}
	}
}

// TestConfigSurface pins every exported field of the configuration types
// the facade hands out, so adding a knob is a deliberate edit of this list.
// Each field names a shipped non-test file (relative to the module root)
// that sets it — by assignment or as a composite-literal key — so a knob
// no program turns on fails here and is deleted with the code behind it.
// What no caller varies is a constant in its package instead: the stores'
// and the transfer pipeline's calibration, the move penalties and the
// plan cap.
func TestConfigSurface(t *testing.T) {
	const (
		ablate    = "internal/experiments/ablate.go"
		scenarios = "internal/experiments/scenarios.go"
		misoquery = "cmd/misoquery/main.go"
	)
	type setter struct{ field, file string }
	for _, c := range []struct {
		typ  reflect.Type
		want []setter
	}{
		{reflect.TypeFor[miso.Config](), []setter{
			{"Variant", "internal/experiments/experiments.go"}, {"Tuner", ablate},
			{"ReorgEvery", "examples/evolving_analyst/main.go"}, {"Decay", ablate},
			{"Faults", misoquery}, {"FaultSeed", misoquery}, {"Retry", scenarios},
			{"CheckpointEvery", misoquery}, {"ExecWorkers", misoquery}, {"MemLimitBytes", misoquery}, {"Reuse", misoquery},
		}},
		{reflect.TypeFor[miso.TunerConfig](), []setter{
			{"Bh", "internal/multistore/multistore.go"}, {"Bd", "internal/multistore/multistore.go"},
			{"Bt", ablate}, {"HVFirst", ablate}, {"SkipSparsify", ablate}, {"AllowReplication", ablate},
		}},
		{reflect.TypeFor[miso.ServeConfig](), []setter{
			{"Workers", scenarios}, {"QueueDepth", scenarios}, {"QueryTimeout", scenarios},
			{"DrainTimeout", scenarios}, {"Quota", scenarios},
		}},
		{reflect.TypeFor[miso.QuotaConfig](), []setter{{"RatePerSec", scenarios}, {"Burst", scenarios}}},
		{reflect.TypeFor[miso.ReuseConfig](), []setter{{"Enabled", misoquery}, {"CacheBytes", misoquery}}},
	} {
		var got, want []string
		for i := 0; i < c.typ.NumField(); i++ {
			if f := c.typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		for _, s := range c.want {
			want = append(want, s.field)
			if !fieldsSetIn(t, s.file)[s.field] {
				t.Errorf("%s.%s: %s neither assigns it nor sets it as a composite-literal key", c.typ, s.field, s.file)
			}
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s has fields %v, want %v", c.typ, got, want)
		}
	}
}

// fieldsSetIn parses one Go file of the module and returns every field
// name it sets: a selector anywhere on the left of an assignment
// (cfg.Tuner.Bt = b sets Tuner and Bt) or a composite-literal key.
func fieldsSetIn(t *testing.T, file string) map[string]bool {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), filepath.Join("..", file), nil, 0)
	if err != nil {
		t.Fatalf("parse %s: %v", file, err)
	}
	set := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				for sel, ok := lhs.(*ast.SelectorExpr); ok; sel, ok = sel.X.(*ast.SelectorExpr) {
					set[sel.Sel.Name] = true
				}
			}
		case *ast.KeyValueExpr:
			if id, ok := n.Key.(*ast.Ident); ok {
				set[id.Name] = true
			}
		}
		return true
	})
	return set
}
