//go:build race

package core_test

// raceEnabled reports whether the race detector instruments this build;
// allocation counts are not asserted under it because the instrumentation
// itself allocates.
const raceEnabled = true
