package govern

import (
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	ten := []time.Duration{9, 3, 7, 1, 5, 10, 2, 8, 4, 6} // sorted: 1..10
	for _, c := range []struct {
		name    string
		samples []time.Duration
		p       int
		want    time.Duration
	}{
		{"empty", nil, 99, 0},
		{"one sample p0", []time.Duration{7}, 0, 7},
		{"one sample p50", []time.Duration{7}, 50, 7},
		{"one sample p100", []time.Duration{7}, 100, 7},
		{"p50 of ten is index 5", ten, 50, 6},
		{"p95 of ten is index 9", ten, 95, 10},
		{"p99 of ten is index 9", ten, 99, 10},
		{"p100 clamps to the maximum", ten, 100, 10},
		{"p0 is the minimum", ten, 0, 1},
	} {
		if got := Percentile(c.samples, c.p); got != c.want {
			t.Errorf("%s: Percentile = %d, want %d", c.name, got, c.want)
		}
	}
	if ten[0] != 9 || ten[9] != 6 {
		t.Errorf("Percentile reordered its input: %v", ten)
	}
}
