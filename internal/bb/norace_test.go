//go:build !race

package bb_test

const raceEnabled = false
