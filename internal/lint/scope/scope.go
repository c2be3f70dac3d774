// Package scope pins which packages each sbwlint analyzer covers. The
// lists are import paths, not patterns: adding a package to the
// deterministic core is a reviewed, deliberate act (it buys the
// bit-identity guarantee and the lint gate that enforces it).
package scope

// Deterministic lists the packages whose outputs (Colors, Stats,
// ChargedRounds, encoded bytes) must be bit-identical across runs,
// worker counts, and hosts. detmaprange and detsource police these.
var Deterministic = map[string]bool{
	"smallbandwidth/internal/engine":    true,
	"smallbandwidth/internal/core":      true,
	"smallbandwidth/internal/netdecomp": true,
	"smallbandwidth/internal/gf2":       true,
	"smallbandwidth/internal/linial":    true,
	"smallbandwidth/internal/clique":    true,
	"smallbandwidth/internal/mpc":       true,
	"smallbandwidth/internal/graph":     true,
	"smallbandwidth/internal/snapshot":  true,
}

// NondetSource extends the detsource net beyond the deterministic core:
// serve answers requests whose payloads must be bit-identical, so its
// one sanctioned wall-clock use (the shutdown read-deadline) carries a
// reviewed //sbw:nondet annotation instead of a free pass.
var NondetSource = map[string]bool{
	"smallbandwidth/internal/serve": true,
}

// DurableWriter lists the packages allowed to touch the filesystem
// write primitives directly: internal/store owns the one durable write
// path (WriteFileAtomic) everything else must go through.
var DurableWriter = map[string]bool{
	"smallbandwidth/internal/store": true,
}

// DetSource reports whether detsource covers pkg.
func DetSource(pkg string) bool { return Deterministic[pkg] || NondetSource[pkg] }
