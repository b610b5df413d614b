//go:build race

package bb_test

// raceEnabled skips the allocation gate under the race detector, whose
// instrumentation allocates on paths that are clean in a normal build.
const raceEnabled = true
