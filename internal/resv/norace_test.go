//go:build !race

package resv

const raceEnabled = false
