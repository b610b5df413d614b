//go:build race

package envelope

// raceEnabled skips the allocs-per-op gates under the race detector,
// whose instrumentation allocates on paths that are clean in a normal
// build.
const raceEnabled = true
