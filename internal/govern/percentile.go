package govern

import (
	"sort"
	"time"
)

// Percentile returns the p-th percentile of the samples by the
// nearest-rank rule every latency threshold in the tree is calibrated to:
// the element at index len*p/100 of the sorted samples, clamped to the
// last one (so p=100 is the maximum), and 0 for no samples. The input is
// not reordered.
func Percentile(samples []time.Duration, p int) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := len(s) * p / 100
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
