//go:build !race

package clique

// raceEnabled reports whether the race detector is active.
const raceEnabled = false
