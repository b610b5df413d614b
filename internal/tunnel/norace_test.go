//go:build !race

package tunnel

const raceEnabled = false
