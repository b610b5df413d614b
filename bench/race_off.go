//go:build !race

package main

// raceEnabled reports that the race detector is compiled in.
const raceEnabled = false
