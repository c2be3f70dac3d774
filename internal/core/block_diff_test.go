package core

import (
	"math"
	"testing"

	"smallbandwidth/internal/congest"
	"smallbandwidth/internal/gf2"
	"smallbandwidth/internal/graph"
)

// compareRuns requires two full pipeline results to agree everywhere the
// derandomization is observable: colors, stats (including the traffic
// the bulk path charges instead of sending), iteration count, and every
// tracked potential, bit for bit.
func compareRuns(t *testing.T, name string, ref, got *Result) {
	t.Helper()
	if got.Stats != ref.Stats {
		t.Errorf("%s: stats differ: got %+v, ref %+v", name, got.Stats, ref.Stats)
	}
	if got.Iterations != ref.Iterations {
		t.Errorf("%s: iterations differ: %d vs %d", name, got.Iterations, ref.Iterations)
	}
	for v := range ref.Colors {
		if got.Colors[v] != ref.Colors[v] {
			t.Errorf("%s: node %d color differs: %d vs %d", name, v, got.Colors[v], ref.Colors[v])
			return
		}
	}
	if len(got.PotentialStart) != len(ref.PotentialStart) {
		t.Errorf("%s: potential records differ in length", name)
		return
	}
	for it := range ref.PotentialStart {
		if math.Float64bits(got.PotentialStart[it]) != math.Float64bits(ref.PotentialStart[it]) {
			t.Errorf("%s: iteration %d PotentialStart %v vs ref %v",
				name, it, got.PotentialStart[it], ref.PotentialStart[it])
			return
		}
		for l := range ref.PotentialPhase[it] {
			if math.Float64bits(got.PotentialPhase[it][l]) != math.Float64bits(ref.PotentialPhase[it][l]) {
				t.Errorf("%s: iteration %d phase %d potential %v vs ref %v",
					name, it, l+1, got.PotentialPhase[it][l], ref.PotentialPhase[it][l])
				return
			}
		}
	}
}

// TestPhaseBlockOwnedEdgeSweep sweeps the batched evaluation across the
// owned-edge counts that straddle its block boundaries — 0 owned edges
// (no sheets at all), 1, one lane shy of typical sheet capacity, at it,
// and past it (63, 64, 65 force single- and multi-sheet layouts) — and
// pins the default bulk path against the reference path (refEval) on
// each. A star's center owns every edge (it carries the smallest ID),
// so the star's leaf count is exactly the center's owned-edge count.
func TestPhaseBlockOwnedEdgeSweep(t *testing.T) {
	for _, leaves := range []int{0, 1, 63, 64, 65} {
		g := graph.Star(leaves + 1)
		inst := graph.DeltaPlusOneInstance(g)
		ref, err := ListColorCONGEST(inst, Options{TrackPotentials: true, refEval: true})
		if err != nil {
			t.Fatalf("leaves=%d ref: %v", leaves, err)
		}
		bulk, err := ListColorCONGEST(inst, Options{TrackPotentials: true})
		if err != nil {
			t.Fatalf("leaves=%d bulk: %v", leaves, err)
		}
		compareRuns(t, "bulk/"+itoa(leaves), ref, bulk)
		if err := inst.VerifyColoring(bulk.Colors); err != nil {
			t.Errorf("leaves=%d: improper coloring: %v", leaves, err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestPhaseBlockWorkersSweep runs the bulk path at several worker
// counts and pins every result against the single-worker reference
// path — the batched evaluation must be scheduling-independent like
// everything else in the engine. The 80-node GNP input is under the
// 256-node floor, so its hubs stay inline; the 600-node regular graph
// is one component past it, so its hub fans each seed bit out over two
// work bands, cut at equal owned-edge counts far from equal slot
// counts.
func TestPhaseBlockWorkersSweep(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp80", graph.GNP(80, 0.08, 17)},
		{"regular600", graph.MustRandomRegular(600, 8, 5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inst := graph.DeltaPlusOneInstance(tc.g)
			ref, err := ListColorCONGEST(inst, Options{TrackPotentials: true, refEval: true, Workers: 1})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 4} {
				got, err := ListColorCONGEST(inst, Options{TrackPotentials: true, Workers: workers})
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				compareRuns(t, "bulk/workers="+itoa(workers), ref, got)
			}
		})
	}
	if n := 600; congest.DeliveryShards(n, 2) < 2 {
		t.Errorf("a %d-node component no longer cuts two hub bands at Workers=2; pick a larger input", n)
	}
}

// TestWideSeedHubMatchesReference sends seeds longer than 64 bits
// through the hub's scalar tier, the only evaluator for forms no sheet
// can carry, and pins it against the reference path. Such seeds need
// M ≥ 33, which ComputeParams reaches only from Δ ≈ 3,850 on (with
// HighAccuracy), so each input's parameter set is widened to M = 33 by
// hand and run through runColoringDomains directly: one component and
// nil weights keep the set as given.
func TestWideSeedHubMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"torus5x5", graph.Torus2D(5, 5)},
		{"gnp48", graph.GNP(48, 0.12, 9)},
		{"star40", graph.Star(40)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inst := graph.DeltaPlusOneInstance(tc.g)
			if c := len(tc.g.ConnectedComponents()); c != 1 {
				t.Fatalf("input has %d components; the widened parameter set needs one", c)
			}
			run := func(opts Options) *Result {
				p, err := ComputeParams(inst, opts)
				if err != nil {
					t.Fatal(err)
				}
				p.M, p.D, p.Fam = 33, 66, gf2.MustFamily(33, 2)
				res, _, err := runColoringDomains(inst, opts, p, nil, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			ref := run(Options{TrackPotentials: true, refEval: true})
			got := run(Options{TrackPotentials: true})
			compareRuns(t, "wide", ref, got)
			if err := inst.VerifyColoring(got.Colors); err != nil {
				t.Errorf("improper coloring: %v", err)
			}
		})
	}
}

// TestDeadSeedBitsHubMatchesReference is TestWideSeedHubMatchesReference
// on the sheet tier: each input's field is widened to M = B+3 by hand,
// so seed bits B..M−1 are in no coin form and the hub fixes them to 0
// without evaluating them, while D = 2M stays ≤ 64 and every node stays
// on sheets. No input the other core tests derive has M > B, so this
// is the sheet tier's check of that skip against the reference, which
// evaluates every bit.
func TestDeadSeedBitsHubMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"torus5x5", graph.Torus2D(5, 5)},
		{"gnp48", graph.GNP(48, 0.12, 9)},
		{"star40", graph.Star(40)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inst := graph.DeltaPlusOneInstance(tc.g)
			if c := len(tc.g.ConnectedComponents()); c != 1 {
				t.Fatalf("input has %d components; the widened parameter set needs one", c)
			}
			run := func(opts Options) *Result {
				p, err := ComputeParams(inst, opts)
				if err != nil {
					t.Fatal(err)
				}
				m := p.B + 3
				if m < p.A || 2*m > 64 {
					t.Fatalf("M = B+3 = %d must cover A = %d and keep D ≤ 64", m, p.A)
				}
				p.M, p.D, p.Fam = m, 2*m, gf2.MustFamily(m, 2)
				res, _, err := runColoringDomains(inst, opts, p, nil, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			ref := run(Options{TrackPotentials: true, refEval: true})
			got := run(Options{TrackPotentials: true})
			compareRuns(t, "dead", ref, got)
			if err := inst.VerifyColoring(got.Colors); err != nil {
				t.Errorf("improper coloring: %v", err)
			}
		})
	}
}

// TestHubBandsBalanceWork pins cutBands: bands are contiguous, cover
// every slot, and each carries within one slot's work of an equal
// share, where a slot's work is its owned edges plus one for its own
// marginal when a neighbor reads it, and a dead slot's is zero — also
// when a colored node's slot still holds the owned edges and marginal
// read of its last live phase, as it does while the node sleeps through
// whole iterations. Owned-edge counts fall with the slot index, as they
// do when edges belong to their smaller endpoint, so an equal-slot cut
// would be far off.
func TestHubBandsBalanceWork(t *testing.T) {
	for _, tc := range []struct {
		name  string
		owned []int // owned edges per slot of a read node; −1 marks a dead slot, k < −1 a dead slot left holding −k owned edges
		bands int
	}{
		{"falling", []int{14, 12, 11, 9, 8, 6, 5, 3, 2, 0, 0, 0}, 2},
		{"falling4", []int{30, 25, 20, 16, 12, 9, 6, 4, 2, 1, 0, 0, 0, 0, 0, 0}, 4},
		{"dead", []int{-1, 9, -1, 4, 4, -1, 0, 0}, 3},
		{"allDead", []int{-1, -1, -1}, 2},
		{"staleDead", []int{-20, 9, -7, 4, 4, -30, 0, 0}, 3},
		{"moreBandsThanSlots", []int{3, 1, 0}, 5},
		{"oneBand", []int{5, 4, 0}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newPhaseHub(len(tc.owned), nil, tc.bands)
			total, maxWork := 0, 0
			for si, k := range tc.owned {
				ns := &nodeState{alive: k >= 0, margRead: k != -1}
				if k > 0 {
					ns.ownedIdx = make([]int32, k)
				} else if k < -1 {
					ns.ownedIdx = make([]int32, -k)
				}
				if k < 0 && ns.bandWork() != 0 {
					t.Fatalf("dead slot %d carries %d work units", si, ns.bandWork())
				}
				h.slots[si].ns = ns
				total += ns.bandWork()
				maxWork = max(maxWork, ns.bandWork())
			}
			h.cutBands()
			if h.cut[0] != 0 || h.cut[tc.bands] != len(tc.owned) {
				t.Fatalf("bands cover [%d, %d), want [0, %d)", h.cut[0], h.cut[tc.bands], len(tc.owned))
			}
			for b := 0; b < tc.bands; b++ {
				if h.cut[b] > h.cut[b+1] {
					t.Fatalf("band %d is [%d, %d)", b, h.cut[b], h.cut[b+1])
				}
				work := 0
				for si := h.cut[b]; si < h.cut[b+1]; si++ {
					work += h.slots[si].ns.bandWork()
				}
				if d := work*tc.bands - total; d > maxWork*tc.bands || -d > maxWork*tc.bands {
					t.Errorf("band %d carries %d of %d work units over %d bands (slot work ≤ %d); cuts %v",
						b, work, total, tc.bands, maxWork, h.cut)
				}
			}
		})
	}
}

// TestHubBandPanicReRaised: a panic on a band goroutine must surface on
// the coordinator, the node goroutine whose panics the engine turns
// into a run error, and only after every band has finished. Slot 1's
// node claims sheets it does not have, so evaluating band 1 panics.
func TestHubBandPanicReRaised(t *testing.T) {
	h := newPhaseHub(2, nil, 2)
	h.slots[0].ns = &nodeState{}
	h.slots[1].ns = &nodeState{alive: true, margRead: true, sheetOK: true}
	h.cut = []int{0, 1, 2}
	defer func() {
		if recover() == nil {
			t.Fatal("band 1's panic was not re-raised on the coordinator")
		}
		if h.panics[1] != nil {
			t.Error("re-raised panic left recorded")
		}
	}()
	h.forBands(passMarginals)
}

// FuzzPhaseBlock feeds arbitrary small instances through the default
// (bulk, bit-sliced) pipeline and the reference evaluation and requires
// bit-identical seeds everywhere they are observable — colors, stats,
// and tracked potentials — plus a proper coloring. This is the fuzz
// companion of the owned-edge sweep: fuzzed graphs hit irregular
// sheet layouts (mixed degrees, multiple components, dead nodes after
// early iterations) that the curated sweeps cannot enumerate.
func FuzzPhaseBlock(f *testing.F) {
	f.Add(uint8(5), []byte{0, 1, 1, 2, 2, 3, 3, 4})
	f.Add(uint8(9), []byte{0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 0, 8})
	f.Add(uint8(7), []byte{0, 1, 2, 3, 4, 5})
	f.Add(uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, n uint8, edges []byte) {
		nn := int(n % 13)
		if nn == 0 {
			t.Skip("empty instance")
		}
		b := graph.NewBuilder(nn)
		for i := 0; i+1 < len(edges) && i < 48; i += 2 {
			u, v := int(edges[i])%nn, int(edges[i+1])%nn
			if u != v && !b.HasEdge(u, v) {
				b.MustAddEdge(u, v)
			}
		}
		inst := graph.DeltaPlusOneInstance(b.Build())
		ref, err := ListColorCONGEST(inst, Options{TrackPotentials: true, refEval: true})
		if err != nil {
			t.Skipf("clean error: %v", err)
		}
		got, err := ListColorCONGEST(inst, Options{TrackPotentials: true})
		if err != nil {
			t.Fatalf("bulk path failed where reference succeeded: %v", err)
		}
		compareRuns(t, "bulk", ref, got)
		if err := inst.VerifyColoring(got.Colors); err != nil {
			t.Fatalf("improper coloring: %v", err)
		}
	})
}

// TestHubSkipsColoredSlots: a colored node sleeps through whole
// iterations, and its slot keeps the sheets and marginal read of its
// last live phase. The band passes must skip it: slot 1 claims a read
// marginal on sheets it does not have, so touching it would panic.
func TestHubSkipsColoredSlots(t *testing.T) {
	h := newPhaseHub(2, nil, 2)
	h.slots[0].ns = &nodeState{}
	h.slots[1].ns = &nodeState{margRead: true, sheetOK: true, sheetN: 1}
	h.cut = []int{0, 1, 2}
	h.acc[1] = [2]float64{1, 1}
	h.forBands(passMarginals)
	h.forBands(passEdges)
	if h.acc[1] != [2]float64{} {
		t.Errorf("colored slot contributed %v, want zeros", h.acc[1])
	}
}
