//go:build !race

package identity

const raceEnabled = false
