package core

import (
	"testing"

	"smallbandwidth/internal/gf2"
	"smallbandwidth/internal/graph"
	"smallbandwidth/internal/linial"
	"smallbandwidth/internal/prng"
)

func adjOf(g *graph.Graph) [][]int32 {
	adj := make([][]int32, g.N())
	for v := 0; v < g.N(); v++ {
		adj[v] = g.Neighbors(v)
	}
	return adj
}

func TestPrefixStateInit(t *testing.T) {
	g := graph.Cycle(8)
	inst := graph.DeltaPlusOneInstance(g)
	st, err := NewPrefixState(inst)
	if err != nil {
		t.Fatal(err)
	}
	if st.Done() {
		t.Error("fresh state reports done")
	}
	if phi := st.Potential(); phi >= float64(g.N()) {
		t.Errorf("Φ₀ = %v should be < n (each term < 1)", phi)
	}
}

// TestUniformProcessExpectationDecreases: Monte-Carlo check of Lemma 2.2 —
// over random runs of Algorithm 1, the mean potential after a phase does
// not exceed the potential before it (with sampling slack).
func TestUniformProcessExpectationDecreases(t *testing.T) {
	g := graph.MustRandomRegular(24, 4, 8)
	inst := graph.DeltaPlusOneInstance(g)
	base, err := NewPrefixState(inst)
	if err != nil {
		t.Fatal(err)
	}
	before := base.Potential()
	const trials = 400
	sum := 0.0
	for trial := 0; trial < trials; trial++ {
		st, _ := NewPrefixState(inst)
		src := prng.New(uint64(trial))
		if err := st.StepUniform(src); err != nil {
			t.Fatal(err)
		}
		sum += st.Potential()
	}
	mean := sum / trials
	// E[Φ₁] ≤ Φ₀ exactly; allow Monte-Carlo noise of 10%.
	if mean > before*1.10 {
		t.Errorf("mean potential after phase %v > before %v (Lemma 2.2 violated)", mean, before)
	}
}

// TestUniformProcessNeverEmpties: the candidate set never becomes empty
// in any of many random full runs (second claim of Lemma 2.2).
func TestUniformProcessNeverEmpties(t *testing.T) {
	g := graph.GNP(20, 0.25, 2)
	inst := graph.DeltaPlusOneInstance(g)
	for trial := 0; trial < 100; trial++ {
		st, err := NewPrefixState(inst)
		if err != nil {
			t.Fatal(err)
		}
		src := prng.New(uint64(trial) + 1000)
		for !st.Done() {
			if err := st.StepUniform(src); err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
		}
		if _, err := st.CandidateColors(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestUniformProcessColorDistribution: iterating Algorithm 1 for all
// ⌈logC⌉ phases is exactly a uniform choice from the initial list (the
// "slowed down" claim of Section 2.1).
func TestUniformProcessColorDistribution(t *testing.T) {
	// A single node with list {1, 4, 6} in color space [8].
	g := graph.Path(1)
	inst := &graph.Instance{G: g, C: 8, Lists: [][]uint32{{1, 4, 6}}}
	counts := map[uint32]int{}
	const trials = 6000
	for trial := 0; trial < trials; trial++ {
		st, err := NewPrefixState(inst)
		if err != nil {
			t.Fatal(err)
		}
		src := prng.New(uint64(trial) * 7)
		for !st.Done() {
			if err := st.StepUniform(src); err != nil {
				t.Fatal(err)
			}
		}
		colors, err := st.CandidateColors()
		if err != nil {
			t.Fatal(err)
		}
		counts[colors[0]]++
	}
	for _, c := range []uint32{1, 4, 6} {
		frac := float64(counts[c]) / trials
		if frac < 0.28 || frac > 0.39 {
			t.Errorf("color %d frequency %v, want ≈ 1/3", c, frac)
		}
	}
	if len(counts) != 3 {
		t.Errorf("colors outside the list were selected: %v", counts)
	}
}

// TestSeededProcessMatchesLemma23: with pairwise-independent ε-biased
// coins the expected potential growth per phase is at most 10·ε·Δ·n
// (Lemma 2.3), checked by Monte-Carlo over seeds.
func TestSeededProcessMatchesLemma23(t *testing.T) {
	g := graph.MustRandomRegular(24, 4, 5)
	inst := graph.DeltaPlusOneInstance(g)
	p, err := ComputeParams(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	psiRaw, _, err := linial.ColorGraph(adjOf(g), g.MaxDegree())
	if err != nil {
		t.Fatal(err)
	}
	base, _ := NewPrefixState(inst)
	before := base.Potential()
	epsBudget := 10.0 / float64(int(1)<<p.B) * float64(p.Delta) * float64(g.N())

	const trials = 400
	sum := 0.0
	for trial := 0; trial < trials; trial++ {
		st, _ := NewPrefixState(inst)
		src := prng.New(uint64(trial) + 99)
		if err := st.StepSeeded(src, psiRaw, p.Fam, p.B); err != nil {
			t.Fatal(err)
		}
		sum += st.Potential()
	}
	mean := sum / trials
	if mean > (before+epsBudget)*1.10 {
		t.Errorf("mean potential %v exceeds Lemma 2.3 bound %v", mean, before+epsBudget)
	}
}

// TestSeededProcessNeverEmpties mirrors Lemma 2.3's never-empty claim for
// the biased-coin process across full runs.
func TestSeededProcessNeverEmpties(t *testing.T) {
	g := graph.Grid2D(4, 5)
	inst := graph.DeltaPlusOneInstance(g)
	p, err := ComputeParams(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	psiRaw, _, err := linial.ColorGraph(adjOf(g), g.MaxDegree())
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 60; trial++ {
		st, _ := NewPrefixState(inst)
		src := prng.New(uint64(trial))
		for !st.Done() {
			if err := st.StepSeeded(src, psiRaw, p.Fam, p.B); err != nil {
				t.Fatalf("trial %d phase %d: %v", trial, st.Phase, err)
			}
		}
		if _, err := st.CandidateColors(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEdgeExpectationMatchesCensus: E[X_e] from the engine equals the
// explicit census over all seeds on a small family.
func TestEdgeExpectationMatchesCensus(t *testing.T) {
	fam := gf2.MustFamily(4, 2)
	b := 3
	type side struct {
		psi      uint64
		k1, list int
	}
	cases := []struct{ u, v side }{
		{side{1, 2, 5}, side{2, 3, 4}},
		{side{0, 0, 3}, side{3, 2, 2}},
		{side{5, 4, 4}, side{9, 1, 5}},
		{side{7, 3, 3}, side{8, 3, 3}},
	}
	for ci, c := range cases {
		cu, err := gf2.NewCoin(fam, c.u.psi, b, uint64(c.u.k1), uint64(c.u.list))
		if err != nil {
			t.Fatal(err)
		}
		cv, err := gf2.NewCoin(fam, c.v.psi, b, uint64(c.v.k1), uint64(c.v.list))
		if err != nil {
			t.Fatal(err)
		}
		got := EdgeExpectation(gf2.NewBasis(), cu, cv, c.u.k1, c.u.list-c.u.k1, c.v.k1, c.v.list-c.v.k1)

		want := 0.0
		total := 0
		for s := uint64(0); s < 1<<fam.SeedBits(); s++ {
			seed := gf2.VecFromUint64(s)
			total++
			bu, bv := cu.Value(seed), cv.Value(seed)
			if bu != bv {
				continue
			}
			if bu {
				want += 1/float64(c.u.k1) + 1/float64(c.v.k1)
			} else {
				want += 1/float64(c.u.list-c.u.k1) + 1/float64(c.v.list-c.v.k1)
			}
		}
		want /= float64(total)
		if diff := got - want; diff > 1e-12 || diff < -1e-12 {
			t.Errorf("case %d: engine %v, census %v", ci, got, want)
		}
	}
}
