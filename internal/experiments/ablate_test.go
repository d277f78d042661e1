package experiments

import (
	"bytes"
	"os"
	"testing"
)

// TestAblateMatchesGolden pins the tuner ablations at the small scale. The
// golden holds the numbers the root BenchmarkAblation* benchmarks reported
// before they were folded into this mode; a change that is not meant to move
// a design or a simulated second must leave it alone.
func TestAblateMatchesGolden(t *testing.T) {
	r, err := Ablate(Small())
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	r.WriteText(&got)
	want, err := os.ReadFile("testdata/ablate_small.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("ablations moved:\n got:\n%s\nwant:\n%s", got.String(), want)
	}
}
