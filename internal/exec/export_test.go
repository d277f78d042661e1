package exec

import (
	"sync/atomic"
	"testing"
)

// RunReference lets the external test package compare engine output to
// the reference operators in reference_test.go.
var RunReference = runReference

// CountPools makes the operators count every goroutine pool they start
// until the test ends. Set it before the runs it counts, from the test's
// own goroutine.
func CountPools(t testing.TB) *atomic.Int64 {
	n := new(atomic.Int64)
	poolStart = func(string, int) { n.Add(1) }
	t.Cleanup(func() { poolStart = nil })
	return n
}
