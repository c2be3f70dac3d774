package core

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"reflect"
	"testing"

	"smallbandwidth/internal/congest"
	"smallbandwidth/internal/graph"
)

func mustInstance(t *testing.T, g *graph.Graph) *graph.Instance {
	t.Helper()
	inst := graph.DeltaPlusOneInstance(g)
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestListColorSmallGraphs(t *testing.T) {
	cases := map[string]*graph.Graph{
		"single":   graph.Path(1),
		"edge":     graph.Path(2),
		"triangle": graph.Complete(3),
		"path":     graph.Path(9),
		"cycle":    graph.Cycle(8),
		"star":     graph.Star(7),
		"grid":     graph.Grid2D(3, 4),
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			inst := mustInstance(t, g)
			res, err := ListColorCONGEST(inst, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Done {
				t.Fatal("run did not color all nodes")
			}
			if err := inst.VerifyColoring(res.Colors); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestListColorMediumGraphs(t *testing.T) {
	if testing.Short() {
		t.Skip("medium graphs skipped in -short")
	}
	cases := map[string]*graph.Graph{
		"regular":   graph.MustRandomRegular(48, 4, 7),
		"gnp":       graph.GNP(40, 0.12, 3),
		"torus":     graph.Torus2D(5, 5),
		"hypercube": graph.Hypercube(4),
		"caveman":   graph.Caveman(4, 4),
		"barbell":   graph.Barbell(5, 6),
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			if !g.IsConnected() {
				t.Skip("generator produced a disconnected graph")
			}
			inst := mustInstance(t, g)
			res, err := ListColorCONGEST(inst, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Done {
				t.Fatal("run did not color all nodes")
			}
		})
	}
}

func TestListColorRandomLists(t *testing.T) {
	g := graph.MustRandomRegular(32, 4, 9)
	inst, err := graph.RandomListInstance(g, 64, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ListColorCONGEST(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("run did not color all nodes")
	}
	if err := inst.VerifyColoring(res.Colors); err != nil {
		t.Fatal(err)
	}
}

func TestListColorShiftedLists(t *testing.T) {
	g := graph.Cycle(16)
	inst, err := graph.ShiftedListInstance(g, 32, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ListColorCONGEST(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("run did not color all nodes")
	}
}

// TestPartialColoringFraction validates the Lemma 2.1 guarantee: every
// iteration permanently colors at least 1/8 of the still-uncolored nodes.
func TestPartialColoringFraction(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Cycle(24),
		graph.MustRandomRegular(40, 4, 1),
		graph.Grid2D(5, 6),
		graph.Star(16),
	}
	for gi, g := range graphs {
		inst := mustInstance(t, g)
		res, err := ListColorCONGEST(inst, Options{})
		if err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
		for i := 0; i < res.Iterations; i++ {
			alive := res.AliveAt[i]
			colored := res.Colored[i]
			if colored*8 < alive {
				t.Errorf("graph %d iteration %d: colored %d of %d < 1/8 (Lemma 2.1 violated)",
					gi, i, colored, alive)
			}
		}
	}
}

// TestPotentialInvariant validates the Lemma 2.6 per-phase bound
// ΣΦ_ℓ ≤ ΣΦ_{ℓ−1} + n_alive/⌈logC⌉ and the final ΣΦ ≤ 2·n_alive of
// Lemma 2.1's proof.
func TestPotentialInvariant(t *testing.T) {
	g := graph.MustRandomRegular(36, 4, 4)
	inst := mustInstance(t, g)
	res, err := ListColorCONGEST(inst, Options{TrackPotentials: true})
	if err != nil {
		t.Fatal(err)
	}
	const slack = 1e-6
	for i := 0; i < res.Iterations; i++ {
		alive := float64(res.AliveAt[i])
		budget := alive / float64(res.Params.LogC)
		prev := res.PotentialStart[i]
		if prev >= alive {
			t.Errorf("iteration %d: ΣΦ₀ = %v ≥ n_alive = %v", i, prev, alive)
		}
		for l := 0; l < res.Params.LogC; l++ {
			cur := res.PotentialPhase[i][l]
			if cur > prev+budget+slack {
				t.Errorf("iteration %d phase %d: ΣΦ %v > %v + %v (Lemma 2.6 violated)",
					i, l+1, cur, prev, budget)
			}
			prev = cur
		}
		final := res.PotentialPhase[i][res.Params.LogC-1]
		if final > 2*alive+slack {
			t.Errorf("iteration %d: final ΣΦ = %v > 2·n_alive = %v", i, final, 2*alive)
		}
	}
}

// TestSeedLengthIndependentOfN: Lemma 2.5/2.6 — the seed length depends
// on Δ, K and loglogC but not directly on n beyond K = O(Δ²).
func TestSeedLengthIndependentOfN(t *testing.T) {
	var seedBits []int
	for _, n := range []int{16, 32, 64} {
		inst := mustInstance(t, graph.Cycle(n))
		p, err := ComputeParams(inst, Options{})
		if err != nil {
			t.Fatal(err)
		}
		seedBits = append(seedBits, p.D)
	}
	for i := 1; i < len(seedBits); i++ {
		if seedBits[i] != seedBits[0] {
			t.Errorf("seed length varies with n on cycles: %v", seedBits)
		}
	}
}

func TestMaxIterationsRunsLemma21Once(t *testing.T) {
	g := graph.MustRandomRegular(32, 4, 2)
	inst := mustInstance(t, g)
	res, err := ListColorCONGEST(inst, Options{MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 1 {
		t.Fatalf("Iterations = %d, want 1", res.Iterations)
	}
	if res.Done {
		t.Skip("instance fully colored in one iteration (allowed but unusual)")
	}
	if res.Colored[0]*8 < res.AliveAt[0] {
		t.Errorf("single Lemma 2.1 invocation colored %d of %d < 1/8",
			res.Colored[0], res.AliveAt[0])
	}
}

func TestRoundsScaleWithDiameter(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling test skipped in -short")
	}
	small := mustInstance(t, graph.Cycle(12))
	big := mustInstance(t, graph.Cycle(48))
	rSmall, err := ListColorCONGEST(small, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rBig, err := ListColorCONGEST(big, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rBig.Stats.Rounds <= rSmall.Stats.Rounds {
		t.Errorf("rounds did not grow with diameter: %d vs %d",
			rSmall.Stats.Rounds, rBig.Stats.Rounds)
	}
}

func TestBandwidthRespected(t *testing.T) {
	inst := mustInstance(t, graph.Grid2D(4, 4))
	res, err := ListColorCONGEST(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.MaxMessageWords > 4 {
		t.Errorf("message of %d words observed; CONGEST cap is 4", res.Stats.MaxMessageWords)
	}
}

func TestHighAccuracyVariant(t *testing.T) {
	g := graph.Cycle(12)
	inst := mustInstance(t, g)
	res, err := ListColorCONGEST(inst, Options{HighAccuracy: true, TrackPotentials: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("high-accuracy run did not finish")
	}
	// Sharper accuracy must not hurt the potential bound.
	for i := range res.PotentialPhase {
		final := res.PotentialPhase[i][res.Params.LogC-1]
		if final > 2*float64(res.AliveAt[i]) {
			t.Errorf("iteration %d: ΣΦ = %v too large", i, final)
		}
	}
}

func TestDisconnectedRunsInOneEngineRun(t *testing.T) {
	g, err := graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {3, 4}, {4, 5}})
	if err != nil {
		t.Fatal(err)
	}
	inst := mustInstance(t, g)
	res, err := ListColorCONGEST(inst, Options{})
	if err != nil {
		t.Fatalf("component-aware ListColorCONGEST rejected a disconnected graph: %v", err)
	}
	if !res.Done {
		t.Fatal("disconnected run incomplete")
	}
	if err := inst.VerifyColoring(res.Colors); err != nil {
		t.Fatal(err)
	}
	// The compatibility delegate must agree bit for bit.
	res2, err := ListColorComponents(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats != res.Stats {
		t.Errorf("ListColorComponents stats %+v differ from ListColorCONGEST %+v", res2.Stats, res.Stats)
	}
	for v := range res.Colors {
		if res.Colors[v] != res2.Colors[v] {
			t.Fatalf("delegate colored node %d differently", v)
		}
	}
}

// TestDisconnectedStatsAreParallelComposition pins the accounting of one
// engine run over several components: rounds must behave like the max
// over components (adding a tiny far-away component to a big one must
// not add its rounds on top), while messages strictly sum.
func TestDisconnectedStatsAreParallelComposition(t *testing.T) {
	big := graph.Cycle(32)
	bigRes, err := ListColorCONGEST(mustInstance(t, big), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// big cycle ⊔ one edge ⊔ one isolated node.
	b := graph.NewBuilder(35)
	big.Edges(func(u, v int) { b.MustAddEdge(u, v) })
	b.MustAddEdge(32, 33)
	union := b.Build()
	res, err := ListColorCONGEST(mustInstance(t, union), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mustInstance(t, union).VerifyColoring(res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.Stats.Rounds > 2*bigRes.Stats.Rounds {
		t.Errorf("union rounds %d look summed, not maxed (big component alone: %d)",
			res.Stats.Rounds, bigRes.Stats.Rounds)
	}
	if res.Stats.Messages <= bigRes.Stats.Messages {
		t.Errorf("union messages %d did not grow over the big component's %d",
			res.Stats.Messages, bigRes.Stats.Messages)
	}
}

// TestDedupMatchesPerComponentRuns is the exactness lockdown of the
// identical-component memoization: on a graph with duplicated
// components, ListColorCONGEST's colors and stats must be bit-identical
// to composing one standalone run per component (max rounds, summed
// traffic, colors mapped by rank) — i.e., simulating a representative
// once must be observationally indistinguishable from simulating every
// copy.
func TestDedupMatchesPerComponentRuns(t *testing.T) {
	b := graph.NewBuilder(26)
	// Three identical 5-node paths.
	for s := 0; s < 15; s += 5 {
		for i := 0; i < 4; i++ {
			b.MustAddEdge(s+i, s+i+1)
		}
	}
	// Two identical triangles.
	for s := 15; s < 21; s += 3 {
		b.MustAddEdge(s, s+1)
		b.MustAddEdge(s+1, s+2)
		b.MustAddEdge(s, s+2)
	}
	// One unique star.
	for i := 22; i < 26; i++ {
		b.MustAddEdge(21, i)
	}
	g := b.Build()
	inst := mustInstance(t, g)

	full, err := ListColorCONGEST(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.VerifyColoring(full.Colors); err != nil {
		t.Fatal(err)
	}

	var want congest.Stats
	for _, comp := range g.ConnectedComponents() {
		sub, orig := g.InducedSubgraph(comp)
		lists := make([][]uint32, sub.N())
		for i, v := range orig {
			lists[i] = append([]uint32(nil), inst.Lists[v]...)
		}
		res, err := ListColorCONGEST(&graph.Instance{G: sub, C: inst.C, Lists: lists}, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range orig {
			if full.Colors[v] != res.Colors[i] {
				t.Fatalf("node %d: full run colored %d, standalone component run %d",
					v, full.Colors[v], res.Colors[i])
			}
		}
		if res.Stats.Rounds > want.Rounds {
			want.Rounds = res.Stats.Rounds
		}
		want.Messages += res.Stats.Messages
		want.Words += res.Stats.Words
		if res.Stats.MaxMessageWords > want.MaxMessageWords {
			want.MaxMessageWords = res.Stats.MaxMessageWords
		}
	}
	if full.Stats != want {
		t.Fatalf("deduplicated stats %+v != per-component composition %+v", full.Stats, want)
	}
}

// TestListsNotAliasedIntoRun is the aliasing regression of the instance
// boundary: a run (connected or not) must leave the caller's inst.Lists
// byte-identical — node programs shift their working lists in place, so
// sharing a backing array would corrupt the caller's instance.
func TestListsNotAliasedIntoRun(t *testing.T) {
	g, err := graph.FromEdges(7, [][2]int{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3}})
	if err != nil {
		t.Fatal(err)
	}
	inst := mustInstance(t, g)
	snapshot := make([][]uint32, len(inst.Lists))
	for v, l := range inst.Lists {
		snapshot[v] = append([]uint32(nil), l...)
	}
	if _, err := ListColorCONGEST(inst, Options{}); err != nil {
		t.Fatal(err)
	}
	for v, l := range inst.Lists {
		if len(l) != len(snapshot[v]) {
			t.Fatalf("node %d list length changed: %d -> %d", v, len(snapshot[v]), len(l))
		}
		for i := range l {
			if l[i] != snapshot[v][i] {
				t.Fatalf("node %d list mutated at index %d: %d -> %d", v, i, snapshot[v][i], l[i])
			}
		}
	}
}

func TestInvalidInstanceRejected(t *testing.T) {
	g := graph.Path(3)
	inst := graph.DeltaPlusOneInstance(g)
	inst.Lists[1] = inst.Lists[1][:1] // too short
	if _, err := ListColorCONGEST(inst, Options{}); err == nil {
		t.Error("invalid instance accepted")
	}
}

// TestDeterministicEndToEnd pins absolute multi-iteration results, not
// just run-to-run agreement: for each input, the Stats, the iteration
// count, AliveAt, the CRC-32 of the colors (little-endian uint32s), and
// the CRC-32 of the encoded checkpoint at every cut, at one worker and
// at four. The values were recorded before the MIS sweep and colored
// nodes were skip-scheduled, so they also pin that sleeping through
// silent rounds moved no send, no choice, and no committed byte.
func TestDeterministicEndToEnd(t *testing.T) {
	for _, tc := range []struct {
		name      string
		inst      func(t *testing.T) *graph.Instance
		stats     congest.Stats
		aliveAt   []int
		colorsCRC uint32
		cutCRC    map[int]uint32 // cut round → CRC-32 of EncodeCheckpoint
	}{
		{
			name:      "grid4x4",
			inst:      func(t *testing.T) *graph.Instance { return mustInstance(t, graph.Grid2D(4, 4)) },
			stats:     congest.Stats{Rounds: 946, Messages: 1794, Words: 6834, MaxMessageWords: 4},
			aliveAt:   []int{16},
			colorsCRC: 0x5c5f45c5,
			cutCRC:    map[int]uint32{22: 0x45ec0b18, 928: 0xe0503108, 946: 0x8c57de46},
		},
		{
			name: "grid40x40lists",
			inst: func(t *testing.T) *graph.Instance {
				inst, err := graph.RandomListInstance(graph.Grid2D(40, 40), 16, 2, 1)
				if err != nil {
					t.Fatal(err)
				}
				return inst
			},
			stats:     congest.Stats{Rounds: 21582, Messages: 463749, Words: 1791267, MaxMessageWords: 4},
			aliveAt:   []int{1600, 31},
			colorsCRC: 0x7db948d8,
			cutCRC:    map[int]uint32{240: 0xdcd210d6, 10830: 0x2859cbd8, 21420: 0x3ae1063f, 21582: 0x6bb95b19},
		},
		{
			name:      "regular600",
			inst:      func(t *testing.T) *graph.Instance { return mustInstance(t, graph.MustRandomRegular(600, 8, 5)) },
			stats:     congest.Stats{Rounds: 3277, Messages: 302294, Words: 1159818, MaxMessageWords: 4},
			aliveAt:   []int{600, 127, 3},
			colorsCRC: 0x2b7bb59e,
			cutCRC:    map[int]uint32{17: 0xa48eaa87, 1099: 0xa11fdbb1, 2181: 0x50319e5e, 3263: 0x3179e6c9, 3277: 0x74e64963},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inst := tc.inst(t)
			for _, workers := range []int{1, 4} {
				opts := Options{Workers: workers}
				res, err := ListColorCONGEST(inst, opts)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if res.Stats != tc.stats || res.Iterations != len(tc.aliveAt) || !reflect.DeepEqual(res.AliveAt, tc.aliveAt) {
					t.Errorf("workers=%d: stats %+v, %d iterations, AliveAt %v; want %+v, %d, %v",
						workers, res.Stats, res.Iterations, res.AliveAt, tc.stats, len(tc.aliveAt), tc.aliveAt)
				}
				var colorBytes []byte
				for _, c := range res.Colors {
					colorBytes = binary.LittleEndian.AppendUint32(colorBytes, c)
				}
				if got := crc32.ChecksumIEEE(colorBytes); got != tc.colorsCRC {
					t.Errorf("workers=%d: colors CRC %08x, want %08x", workers, got, tc.colorsCRC)
				}

				ck := &congest.Checkpointer{KeepAll: true}
				resumable, err := ListColorResumable(inst, opts, ck, nil)
				if err != nil {
					t.Fatalf("workers=%d checkpointed: %v", workers, err)
				}
				requireResultEq(t, fmt.Sprintf("workers=%d checkpointed", workers), resumable, res)
				cuts := map[int]uint32{}
				for _, k := range ck.CutRounds() {
					cuts[k] = crc32.ChecksumIEEE(EncodeCheckpoint(&Checkpoint{Inst: inst, Opts: opts, Snap: ck.At(k)}))
				}
				if !reflect.DeepEqual(cuts, tc.cutCRC) {
					t.Errorf("workers=%d: cut CRCs %x, want %x", workers, cuts, tc.cutCRC)
				}
			}
		})
	}
}
