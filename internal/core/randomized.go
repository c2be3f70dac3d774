package core

import (
	"fmt"

	"smallbandwidth/internal/gf2"
	"smallbandwidth/internal/graph"
	"smallbandwidth/internal/prng"
)

// PrefixState is the centralized state of the bit-by-bit prefix-extension
// process of Section 2.1 on a list-coloring instance: per-node candidate
// sets L_ℓ(v) and the conflict graph G_ℓ. It is used by the zero-round
// randomized algorithms (Algorithm 1 and the ε-biased variant) and by the
// tests that compare the derandomized CONGEST run against the process it
// derandomizes.
type PrefixState struct {
	Inst  *graph.Instance
	LogC  int
	Phase int        // number of prefix bits fixed so far
	Cands [][]uint32 // current candidate sets L_ℓ(v)
	Conf  [][]int32  // adjacency of the conflict graph G_ℓ
}

// NewPrefixState initializes the process with empty prefixes: candidate
// sets are the full lists and the conflict graph is G itself.
func NewPrefixState(inst *graph.Instance) (*PrefixState, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	p, err := ComputeParams(inst, Options{})
	if err != nil {
		return nil, err
	}
	st := &PrefixState{Inst: inst, LogC: p.LogC}
	st.Cands = make([][]uint32, inst.G.N())
	st.Conf = make([][]int32, inst.G.N())
	for v := range st.Cands {
		st.Cands[v] = append([]uint32(nil), inst.Lists[v]...)
		st.Conf[v] = append([]int32(nil), inst.G.Neighbors(v)...)
	}
	return st, nil
}

// Potential returns Σ_v Φ_ℓ(v) = Σ_v deg_ℓ(v)/|L_ℓ(v)|.
func (st *PrefixState) Potential() float64 {
	total := 0.0
	for v := range st.Cands {
		total += float64(len(st.Conf[v])) / float64(len(st.Cands[v]))
	}
	return total
}

// Done reports whether all ⌈logC⌉ bits have been fixed.
func (st *PrefixState) Done() bool { return st.Phase >= st.LogC }

// step applies one bit choice per node: it filters candidate sets and
// prunes the conflict graph. bits[v] is node v's chosen ℓ-th bit.
func (st *PrefixState) step(bits []bool) error {
	bitPos := st.LogC - st.Phase - 1
	for v := range st.Cands {
		st.Cands[v] = filterByBit(st.Cands[v], bitPos, bits[v])
		if len(st.Cands[v]) == 0 {
			return fmt.Errorf("core: node %d candidate set became empty in phase %d", v, st.Phase+1)
		}
	}
	for v := range st.Conf {
		kept := st.Conf[v][:0]
		for _, w := range st.Conf[v] {
			if bits[w] == bits[v] {
				kept = append(kept, w)
			}
		}
		st.Conf[v] = kept
	}
	st.Phase++
	return nil
}

// StepUniform runs one phase of Algorithm 1 with fully independent
// uniform randomness: node v extends its prefix by 1 with probability
// p_v = k1(v)/|L_{ℓ−1}(v)| exactly.
func (st *PrefixState) StepUniform(src *prng.Source) error {
	bitPos := st.LogC - st.Phase - 1
	bits := make([]bool, len(st.Cands))
	for v := range st.Cands {
		k1 := countBitOnes(st.Cands[v], bitPos)
		bits[v] = src.Intn(len(st.Cands[v])) < k1
	}
	return st.step(bits)
}

// StepSeeded runs one phase using the paper's pairwise-independent biased
// coins (Lemma 2.5): the given input coloring psi selects each node's
// hash input, coins come from the shared random seed drawn from src, and
// probabilities are p_v rounded up to a multiple of 2^−b.
func (st *PrefixState) StepSeeded(src *prng.Source, psi []uint64, fam *gf2.Family, b int) error {
	bitPos := st.LogC - st.Phase - 1
	seed := gf2.Vec128{Lo: src.Uint64(), Hi: src.Uint64()}
	for i := fam.SeedBits(); i < 128; i++ {
		seed = seed.WithBit(i, false)
	}
	bits := make([]bool, len(st.Cands))
	for v := range st.Cands {
		k1 := countBitOnes(st.Cands[v], bitPos)
		coin, err := gf2.NewCoin(fam, psi[v], b, uint64(k1), uint64(len(st.Cands[v])))
		if err != nil {
			return err
		}
		bits[v] = coin.Value(seed)
	}
	return st.step(bits)
}

// CandidateColors returns each node's single candidate after all phases.
func (st *PrefixState) CandidateColors() ([]uint32, error) {
	if !st.Done() {
		return nil, fmt.Errorf("core: process has fixed %d of %d bits", st.Phase, st.LogC)
	}
	out := make([]uint32, len(st.Cands))
	for v, c := range st.Cands {
		if len(c) != 1 {
			return nil, fmt.Errorf("core: node %d has %d candidates", v, len(c))
		}
		out[v] = c[0]
	}
	return out, nil
}
