// Package core implements the paper's primary contribution: deterministic
// (degree+1)-list coloring in the CONGEST model in time proportional to
// the diameter (Lemma 2.1 and Theorem 1.1), by derandomizing — with the
// method of conditional expectations over a BFS tree — the zero-round
// randomized bit-by-bit color-prefix extension of Section 2.1.
//
// The package also exposes the zero-round randomized processes themselves
// (Algorithm 1 and its ε-biased variant of Lemma 2.3) for baseline
// comparison and for Monte-Carlo validation of the expectation bounds.
package core

import (
	"fmt"
	"math/bits"

	"smallbandwidth/internal/gf2"
	"smallbandwidth/internal/graph"
	"smallbandwidth/internal/linial"
)

// Params collects the global quantities of one list-coloring run. Every
// node derives the same Params locally from (n, Δ, C) — exactly the
// "global knowledge" the paper assumes.
type Params struct {
	N     int    // number of nodes
	Delta int    // maximum degree of the communication graph
	C     uint32 // color-space size; colors are ⌈logC⌉-bit strings
	LogC  int    // ⌈log₂ C⌉: number of prefix-extension phases

	// Input-coloring (symmetry-breaking) parameters: Linial from IDs.
	LinialSched []linial.Step
	K           uint64 // color space of ψ after the Linial schedule
	A           int    // ⌈log₂ K⌉

	// Derandomization parameters (Lemma 2.6).
	B int // coin accuracy: ε = 2^−B
	M int // hash field degree max(A, B)
	D int // seed length 2M (pairwise independence, k = 2)

	// MIS-step parameters: Linial schedule on the ≤3-degree conflict
	// graph, starting from the K-coloring ψ.
	MISSched []linial.Step
	MISK     uint64 // color classes iterated by the MIS step

	Fam *gf2.Family
}

// Options configures a run.
type Options struct {
	// MaxIterations limits the number of partial-coloring iterations
	// (0 = run to completion). MaxIterations = 1 is Lemma 2.1.
	MaxIterations int
	// HighAccuracy uses the sharper coin accuracy of the paper's
	// "How to Avoid MIS" variant (Section 4): ε = 1/(10·Δ·(Δ+1)·⌈logC⌉).
	// The CONGEST algorithm still runs its MIS step, so this serves as an
	// accuracy ablation.
	HighAccuracy bool
	// TrackPotentials records Σ_v Φ(v) before and after every prefix
	// phase (measured outside the protocol; costs no rounds).
	TrackPotentials bool
	// MaxWords overrides the CONGEST bandwidth cap (0 = default).
	MaxWords int
	// MaxRounds overrides the CONGEST round cap (0 = default).
	MaxRounds int
	// Workers bounds the simulator's parallelism: the engine's delivery
	// shards and each component's phase-hub work bands (bulk.go). 0 sizes
	// both from GOMAXPROCS, n > 0 caps both at n; either way a shard or
	// band covers at least 256 nodes. Colors, Stats, and telemetry are
	// bit-identical for every setting; the engine rejects negative or
	// absurd values.
	Workers int

	// refEval routes every derandomization phase through the
	// pre-optimization evaluation path (runPhaseRef), with every seed
	// bit's tree aggregation run for real (no phase hubs). Test-only:
	// the differential tests pin that the phase hub reproduces the
	// reference — seeds, potentials and charged traffic — bit for bit.
	refEval bool

	// crashIter/crashNode inject a fault: when crashIter > 0, node
	// crashNode's program panics at the top of iteration crashIter−1,
	// before committing it. Test-only: the checkpoint tests use it to
	// kill a worker mid-run and pin that the cuts recorded before the
	// crash resume to the uninterrupted run's exact results.
	crashIter int
	crashNode int
}

// ComputeParams validates the instance and derives all global parameters.
func ComputeParams(inst *graph.Instance, opts Options) (*Params, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	return computeParamsFor(inst.G.N(), inst.G.MaxDegree(), inst.C, opts)
}

// computeParamsFor derives the parameter set from the quantities every
// node of a (sub)network knows: its node count, maximum degree, and the
// color-space size. ListColorCONGEST derives one set per connected
// component, so a component behaves exactly as a standalone run of its
// own instance would (the per-cluster reading of Corollary 1.2).
func computeParamsFor(n, delta int, c uint32, opts Options) (*Params, error) {
	logC := bits.Len32(c - 1) // ⌈log₂ C⌉ for C ≥ 1
	p := &Params{N: n, Delta: delta, C: c, LogC: logC}

	// Input coloring: Linial from the trivial ID coloring.
	k0 := uint64(n)
	if k0 < 2 {
		k0 = 2
	}
	p.LinialSched = linial.Schedule(k0, delta)
	p.K = k0
	for _, st := range p.LinialSched {
		p.K = st.NewK
	}
	p.A = bits.Len64(p.K - 1)
	if p.A < 1 {
		p.A = 1
	}

	// Coin accuracy: ε = 2^−B ≤ 1/(10·Δ·⌈logC⌉) so that the per-phase
	// potential growth is at most n/⌈logC⌉ (Lemma 2.6).
	effLogC := logC
	if effLogC < 1 {
		effLogC = 1
	}
	accDenom := uint64(10) * uint64(delta+1) * uint64(effLogC)
	if opts.HighAccuracy {
		accDenom *= uint64(delta + 1)
	}
	p.B = bits.Len64(accDenom) // ⌈log₂ accDenom⌉ ≤ Len
	if p.B < 1 {
		p.B = 1
	}
	p.M = p.A
	if p.B > p.M {
		p.M = p.B
	}
	if p.M > 63 {
		return nil, fmt.Errorf("core: hash field degree %d exceeds 63 (instance too large)", p.M)
	}
	// Coin thresholds are ⌈k1·2^B/|L|⌉ with k1 ≤ C: they must fit uint64.
	if p.B+bits.Len32(c) > 62 {
		return nil, fmt.Errorf("core: B=%d with C=%d would overflow coin thresholds", p.B, c)
	}
	p.D = 2 * p.M
	fam, err := gf2.NewFamily(p.M, 2)
	if err != nil {
		return nil, err
	}
	p.Fam = fam

	// MIS step: conflict graph has max degree 3 on V<4.
	p.MISSched = linial.Schedule(p.K, 3)
	p.MISK = p.K
	for _, st := range p.MISSched {
		p.MISK = st.NewK
	}
	return p, nil
}

// EdgeExpectation returns E[X_e | basis] for a conflict edge, where
// X_e = 1{e survives}·(1/|L_ℓ(u)|+1/|L_ℓ(v)|) exactly as in Lemma 2.2:
// the edge survives iff both endpoints extend their prefix with the same
// bit, and the surviving list sizes are k1 (bit 1) or k0 (bit 0).
// Exported for the hot-path microbenchmarks (BenchmarkEdgeExpectation).
//
//sbw:allocfree Theorem 1.1 phase-step kernel: per-edge conditional expectation
func EdgeExpectation(bs *gf2.Basis, cu, cv gf2.Coin, k1u, k0u, k1v, k0v int) float64 {
	p1u, p11 := gf2.ProbOneAndBothOne(bs, cu, cv)
	p1v := cv.ProbOne(bs)
	return edgeCombine(p1u, p1v, p11, k1u, k0u, k1v, k0v)
}

// EdgeExpectationSplit returns EdgeExpectation under both branches of a
// split seed bit in one mask-elimination pass (the "both β in one pass"
// restructuring of the Lemma 2.6 inner loop): e0 conditions on bit=0,
// e1 on bit=1. Bit-identical to two EdgeExpectation calls on bases with
// the bit fixed.
//
//sbw:allocfree Theorem 1.1 phase-step kernel: both branches of one seed bit, the TestPhaseStepAllocFree loop body
func EdgeExpectationSplit(sb *gf2.SplitBasis, cu, cv gf2.Coin, k1u, k0u, k1v, k0v int) (e0, e1 float64) {
	p1u0, p1v0, p110, p1u1, p1v1, p111 := sb.EdgePair(cu, cv)
	return edgeCombine(p1u0, p1v0, p110, k1u, k0u, k1v, k0v),
		edgeCombine(p1u1, p1v1, p111, k1u, k0u, k1v, k0v)
}

// edgeCombine assembles the Lemma 2.2 edge term from the three joint
// coin probabilities (shared by the one-basis and split evaluations; the
// expression and operation order are part of the bit-identity contract).
// Each product is rounded by an explicit float64 conversion before it
// is added: the Go spec lets arm64, ppc64le, s390x and riscv64 fuse an
// unrounded x*y + z into one multiply-add, whose bits differ from
// amd64's.
//
//sbw:allocfree phase-step kernel: Lemma 2.2 edge term assembly
func edgeCombine(p1u, p1v, p11 float64, k1u, k0u, k1v, k0v int) float64 {
	p00 := 1 - p1u - p1v + p11
	var e float64
	if p11 > 0 {
		// p11 > 0 implies k1u, k1v ≥ 1 (thresholds are 0 otherwise).
		e += float64(p11 * (1/float64(k1u) + 1/float64(k1v)))
	}
	if p00 > 0 {
		// p00 > 0 implies k0u, k0v ≥ 1 (p = 1 coins never show 0).
		e += float64(p00 * (1/float64(k0u) + 1/float64(k0v)))
	}
	return e
}

// countBitOnes returns how many candidate colors have bit bitPos set.
func countBitOnes(cands []uint32, bitPos int) int {
	k1 := 0
	for _, c := range cands {
		if c&(1<<bitPos) != 0 {
			k1++
		}
	}
	return k1
}

// filterByBit keeps the candidates whose bitPos-th bit equals val,
// filtering in place.
func filterByBit(cands []uint32, bitPos int, val bool) []uint32 {
	out := cands[:0]
	for _, c := range cands {
		if (c&(1<<bitPos) != 0) == val {
			out = append(out, c)
		}
	}
	return out
}

// removeColor deletes color c from the sorted list if present.
func removeColor(list []uint32, c uint32) []uint32 {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if list[mid] < c {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(list) && list[lo] == c {
		return append(list[:lo], list[lo+1:]...)
	}
	return list
}
