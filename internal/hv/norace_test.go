//go:build !race

package hv_test

// raceEnabled reports whether the race detector instruments this build;
// allocation-volume assertions are skipped under it because the
// instrumentation itself allocates.
const raceEnabled = false
