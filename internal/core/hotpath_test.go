package core

import (
	"math"
	"testing"

	"smallbandwidth/internal/gf2"
	"smallbandwidth/internal/graph"
)

// TestPhasePotentialsMatchReference runs the full Theorem 1.1 pipeline
// twice on seeded graphs — once through the optimized hot path (cached
// coin forms, split-basis dual-β evaluation, per-bit marginal table, reused
// buffers) and once through the verbatim pre-optimization evaluation
// (runPhaseRef) — and requires bit-identical results everywhere the
// derandomization is observable: colors, stats, iteration telemetry,
// and every tracked potential.
func TestPhasePotentialsMatchReference(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"cycle24", graph.Cycle(24)},
		{"torus5x5", graph.Torus2D(5, 5)},
		{"regular4", graph.MustRandomRegular(40, 4, 3)},
		{"gnp", graph.GNP(48, 0.12, 9)},
		{"star+path", disjointStarPath(t)},
	}
	for _, tc := range graphs {
		t.Run(tc.name, func(t *testing.T) {
			inst := graph.DeltaPlusOneInstance(tc.g)
			fast, err := ListColorCONGEST(inst, Options{TrackPotentials: true})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := ListColorCONGEST(inst, Options{TrackPotentials: true, refEval: true})
			if err != nil {
				t.Fatal(err)
			}
			if fast.Stats != ref.Stats {
				t.Fatalf("stats differ: fast %+v, ref %+v", fast.Stats, ref.Stats)
			}
			if fast.Iterations != ref.Iterations {
				t.Fatalf("iterations differ: %d vs %d", fast.Iterations, ref.Iterations)
			}
			for v := range fast.Colors {
				if fast.Colors[v] != ref.Colors[v] {
					t.Fatalf("node %d color differs: %d vs %d", v, fast.Colors[v], ref.Colors[v])
				}
			}
			for it := range ref.PotentialStart {
				if math.Float64bits(fast.PotentialStart[it]) != math.Float64bits(ref.PotentialStart[it]) {
					t.Fatalf("iteration %d: PotentialStart %v vs ref %v",
						it, fast.PotentialStart[it], ref.PotentialStart[it])
				}
				for l := range ref.PotentialPhase[it] {
					if math.Float64bits(fast.PotentialPhase[it][l]) != math.Float64bits(ref.PotentialPhase[it][l]) {
						t.Fatalf("iteration %d phase %d: PotentialPhase %v vs ref %v",
							it, l+1, fast.PotentialPhase[it][l], ref.PotentialPhase[it][l])
					}
				}
			}
		})
	}
}

func disjointStarPath(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(12)
	for i := 1; i < 6; i++ {
		if err := b.AddEdge(0, i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 6; i < 11; i++ {
		if err := b.AddEdge(i, i+1); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// TestPhaseStepAllocFree is the allocs/op regression guard on the
// steady-state phase computation: with warm per-node caches (forms
// built, basis and scratch pooled, split bases recycled), evaluating a
// seed bit's conditional expectations over a set of edges must not
// allocate. Before the hot-path rework this step allocated hundreds of
// objects (fresh forms, coins, and basis rows per edge per bit). The
// 33-bit family is the scalar kernel's production input, seeds longer
// than 64 bits; the 12-bit one keeps its walks on single-word masks.
func TestPhaseStepAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops cached objects under -race; allocation counts are meaningless")
	}
	for _, m := range []int{12, 33} {
		fam := gf2.MustFamily(m, 2)
		const b = 9
		// Cached forms, as nodeState keeps them across phases.
		myForms := fam.OutputForms(5, b)
		edgeForms := [][]gf2.Form{
			fam.OutputForms(9, b),
			fam.OutputForms(21, b),
			fam.OutputForms(33, b),
		}
		basis := gf2.NewBasis()
		basis.FixBit(0, true)
		basis.FixBit(1, false)

		myCoin, err := gf2.NewCoinFromForms(myForms, 3, 7)
		if err != nil {
			t.Fatal(err)
		}
		var edgeCoins []gf2.Coin
		for i, fs := range edgeForms {
			c, err := gf2.NewCoinFromForms(fs, uint64(2+i), 6)
			if err != nil {
				t.Fatal(err)
			}
			edgeCoins = append(edgeCoins, c)
		}

		step := func() {
			for j := 2; j < 10; j++ {
				sb, ok := basis.Split(j)
				if !ok {
					t.Fatal("split refused")
				}
				for _, cv := range edgeCoins {
					EdgeExpectationSplit(sb, myCoin, cv, 3, 4, 2, 4)
				}
				sb.Release()
			}
		}
		step() // warm the pools
		if n := testing.AllocsPerRun(50, step); n > 0 {
			t.Fatalf("m=%d: steady-state phase step allocates %v objects per run, want 0", m, n)
		}
	}
}
