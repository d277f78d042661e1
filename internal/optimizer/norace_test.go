//go:build !race

package optimizer_test

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = false
