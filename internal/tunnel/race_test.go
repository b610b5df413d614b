//go:build race

package tunnel

// raceEnabled skips the allocs-per-op gate under the race detector,
// whose instrumentation allocates on paths that are clean in a normal
// build.
const raceEnabled = true
