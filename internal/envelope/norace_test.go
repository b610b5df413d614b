//go:build !race

package envelope

const raceEnabled = false
