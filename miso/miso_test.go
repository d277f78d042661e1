package miso_test

import (
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
// What no caller varies is a constant in its package instead: the stores'
// and the transfer pipeline's calibration, the move penalties, the plan
// cap, the breaker's threshold and cooldown, the limiter's floor.
func TestConfigSurface(t *testing.T) {
	for _, c := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeFor[miso.Config](), []string{
			"Variant", "Tuner", "ReorgEvery", "Decay", "Faults", "FaultSeed", "Retry", "RetryBudget",
			"Hedge", "CheckpointEvery", "ExecWorkers", "MemLimitBytes", "MemPoolBytes", "Reuse",
		}},
		{reflect.TypeFor[miso.TunerConfig](), []string{"Bh", "Bd", "Bt", "HVFirst", "SkipSparsify", "AllowReplication"}},
		{reflect.TypeFor[miso.ServeConfig](), []string{"Workers", "QueueDepth", "QueryTimeout", "DrainTimeout", "Quota", "Adaptive"}},
		{reflect.TypeFor[miso.AdaptiveConfig](), []string{"TargetP99", "Window"}},
	} {
		var got []string
		for i := 0; i < c.typ.NumField(); i++ {
			if f := c.typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, c.want) {
			t.Errorf("%s has fields %v, want %v", c.typ, got, c.want)
		}
	}
}
