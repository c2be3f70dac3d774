//go:build race

package gf2

// raceEnabled reports whether the race detector is active: sync.Pool
// intentionally drops cached objects under -race, so allocation-count
// assertions on pooled hot paths are meaningless there.
const raceEnabled = true
