package graph

import (
	"testing"
	"testing/quick"
)

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder(5)
	if err := b.AddEdge(0, 5); err == nil {
		t.Error("out-of-range edge accepted")
	}
	if err := b.AddEdge(-1, 2); err == nil {
		t.Error("negative endpoint accepted")
	}
	if err := b.AddEdge(3, 3); err == nil {
		t.Error("self-loop accepted")
	}
	if err := b.AddEdge(1, 2); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if err := b.AddEdge(2, 1); err == nil {
		t.Error("duplicate (reversed) edge accepted")
	}
}

func TestBuildAdjacencySorted(t *testing.T) {
	g, err := FromEdges(6, [][2]int{{5, 0}, {0, 3}, {0, 1}, {4, 0}, {2, 0}})
	if err != nil {
		t.Fatal(err)
	}
	nbrs := g.Neighbors(0)
	for i := 1; i < len(nbrs); i++ {
		if nbrs[i-1] >= nbrs[i] {
			t.Fatalf("adjacency not sorted: %v", nbrs)
		}
	}
	if g.Degree(0) != 5 || g.M() != 5 {
		t.Errorf("degree/m wrong: %d, %d", g.Degree(0), g.M())
	}
	if !g.HasEdge(0, 3) || g.HasEdge(1, 2) {
		t.Error("HasEdge wrong")
	}
}

func TestEdgesIteration(t *testing.T) {
	g := Cycle(5)
	count := 0
	g.Edges(func(u, v int) {
		if u >= v {
			t.Errorf("Edges emitted u=%d >= v=%d", u, v)
		}
		count++
	})
	if count != 5 {
		t.Errorf("cycle C5 has %d edges, want 5", count)
	}
}

func TestGeneratorShapes(t *testing.T) {
	cases := []struct {
		name          string
		g             *Graph
		n, m, maxDeg  int
		diam          int // -1 to skip
		mustConnected bool
	}{
		{"Path10", Path(10), 10, 9, 2, 9, true},
		{"Cycle6", Cycle(6), 6, 6, 2, 3, true},
		{"Complete5", Complete(5), 5, 10, 4, 1, true},
		{"Star7", Star(7), 7, 6, 6, 2, true},
		{"K33", CompleteBipartite(3, 3), 6, 9, 3, 2, true},
		{"Grid3x4", Grid2D(3, 4), 12, 17, 4, 5, true},
		{"Torus4x4", Torus2D(4, 4), 16, 32, 4, 4, true},
		{"Hypercube4", Hypercube(4), 16, 32, 4, 4, true},
		{"BinaryTree7", BinaryTree(7), 7, 6, 3, 4, true},
		{"Caveman4x5", Caveman(4, 5), 20, 44, 5, -1, true},
		{"Barbell5_3", Barbell(5, 3), 13, 24, 5, -1, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.g.N() != c.n {
				t.Errorf("N = %d, want %d", c.g.N(), c.n)
			}
			if c.g.M() != c.m {
				t.Errorf("M = %d, want %d", c.g.M(), c.m)
			}
			if c.g.MaxDegree() != c.maxDeg {
				t.Errorf("Δ = %d, want %d", c.g.MaxDegree(), c.maxDeg)
			}
			if c.diam >= 0 {
				if d := c.g.Diameter(); d != c.diam {
					t.Errorf("diameter = %d, want %d", d, c.diam)
				}
			}
			if c.mustConnected && !c.g.IsConnected() {
				t.Error("not connected")
			}
		})
	}
}

func TestBarbellDiameterGrows(t *testing.T) {
	d1 := Barbell(4, 4).Diameter()
	d2 := Barbell(4, 20).Diameter()
	if d2 <= d1 {
		t.Errorf("barbell diameter should grow with path: %d vs %d", d1, d2)
	}
}

func TestRandomRegular(t *testing.T) {
	for _, c := range []struct{ n, d int }{{10, 3}, {20, 4}, {16, 5}, {64, 3}} {
		g, err := RandomRegular(c.n, c.d, 1)
		if err != nil {
			t.Fatalf("RandomRegular(%d,%d): %v", c.n, c.d, err)
		}
		for v := 0; v < g.N(); v++ {
			if g.Degree(v) != c.d {
				t.Fatalf("node %d degree %d, want %d", v, g.Degree(v), c.d)
			}
		}
	}
	if _, err := RandomRegular(5, 3, 1); err == nil {
		t.Error("odd n·d accepted")
	}
	if _, err := RandomRegular(4, 4, 1); err == nil {
		t.Error("d >= n accepted")
	}
	// Determinism.
	g1 := MustRandomRegular(30, 4, 77)
	g2 := MustRandomRegular(30, 4, 77)
	same := true
	g1.Edges(func(u, v int) {
		if !g2.HasEdge(u, v) {
			same = false
		}
	})
	if !same || g1.M() != g2.M() {
		t.Error("RandomRegular not deterministic for fixed seed")
	}
}

func TestGNPDeterministicAndSimple(t *testing.T) {
	g1 := GNP(40, 0.2, 5)
	g2 := GNP(40, 0.2, 5)
	if g1.M() != g2.M() {
		t.Error("GNP not deterministic")
	}
	g3 := GNP(40, 0.2, 6)
	if g3.M() == g1.M() {
		t.Log("different seeds gave same edge count (possible but unlikely)")
	}
	if g := GNP(30, 0, 1); g.M() != 0 {
		t.Error("GNP(p=0) has edges")
	}
	if g := GNP(10, 1, 1); g.M() != 45 {
		t.Error("GNP(p=1) not complete")
	}
}

func TestChungLuPowerLaw(t *testing.T) {
	w := PowerLawWeights(100, 2.5, 4)
	g := ChungLu(w, 3)
	if g.N() != 100 {
		t.Fatalf("N = %d", g.N())
	}
	// Average degree should be within a factor 2 of the target.
	avg := float64(2*g.M()) / 100
	if avg < 1 || avg > 10 {
		t.Errorf("average degree %v far from target 4", avg)
	}
}

// TestChungLuTinyProbabilities pins the Log1p fix in the skipping
// sampler: pair probabilities below one ulp of 1.0 (log(1-p) would
// round to 0 and the geometric skip to -Inf) must terminate the row
// cleanly instead of indexing out of range.
func TestChungLuTinyProbabilities(t *testing.T) {
	weights := make([]float64, 2000)
	for i := range weights {
		weights[i] = 1e-7
	}
	weights[0] = 1e6
	g := ChungLu(weights, 5)
	if g.N() != 2000 {
		t.Fatalf("N = %d", g.N())
	}
	// Edges between two 1e-7-weight nodes have p ~ 1e-20; none should
	// realistically appear, and none may crash the sampler.
	g.Edges(func(u, v int) {
		if u != 0 && v != 0 {
			t.Fatalf("implausible edge (%d,%d) between tiny-weight nodes", u, v)
		}
	})
}

func TestRandomGeometric(t *testing.T) {
	g := RandomGeometric(60, 0.25, 7)
	if g.N() != 60 {
		t.Fatalf("N = %d", g.N())
	}
	// Deterministic in seed.
	g2 := RandomGeometric(60, 0.25, 7)
	if g.M() != g2.M() {
		t.Error("RandomGeometric not deterministic")
	}
	// Radius 0 → empty; radius √2 → complete.
	if RandomGeometric(20, 0, 1).M() != 0 {
		t.Error("radius 0 produced edges")
	}
	if RandomGeometric(10, 1.5, 1).M() != 45 {
		t.Error("radius √2 not complete")
	}
	// Monotone in radius.
	if RandomGeometric(40, 0.1, 3).M() > RandomGeometric(40, 0.3, 3).M() {
		t.Error("edge count not monotone in radius")
	}
}

func TestCirculant(t *testing.T) {
	g := Circulant(10, []int{1, 3})
	if g.MaxDegree() != 4 {
		t.Errorf("Δ = %d, want 4", g.MaxDegree())
	}
	if !g.IsConnected() {
		t.Error("circulant not connected")
	}
	// Offset n/2 must not create duplicates.
	g2 := Circulant(8, []int{4})
	if g2.M() != 4 {
		t.Errorf("C8(4) has %d edges, want 4", g2.M())
	}
}

func TestBFSAndDiameter(t *testing.T) {
	g := Path(6)
	dist, parent := g.BFS(0)
	for v := 0; v < 6; v++ {
		if dist[v] != v {
			t.Errorf("dist[%d] = %d", v, dist[v])
		}
	}
	if parent[0] != -1 || parent[3] != 2 {
		t.Errorf("parents wrong: %v", parent)
	}
	if g.Eccentricity(2) != 3 {
		t.Errorf("ecc(2) = %d", g.Eccentricity(2))
	}
	// Disconnected graph.
	g2, _ := FromEdges(4, [][2]int{{0, 1}, {2, 3}})
	if g2.Diameter() != -1 {
		t.Error("disconnected diameter should be -1")
	}
	if g2.IsConnected() {
		t.Error("disconnected graph reported connected")
	}
	comps := g2.ConnectedComponents()
	if len(comps) != 2 || len(comps[0]) != 2 {
		t.Errorf("components wrong: %v", comps)
	}
}

func TestComponentCount(t *testing.T) {
	for _, g := range []*Graph{
		Path(9), Cycle(12), Star(7), Grid2D(4, 5), GNP(40, 0.05, 3),
		NewBuilder(6).Build(), NewBuilder(0).Build(),
		Barbell(5, 4), Caveman(4, 3),
	} {
		if got, want := g.ComponentCount(), len(g.ConnectedComponents()); got != want {
			t.Errorf("n=%d: ComponentCount=%d, ConnectedComponents yields %d", g.N(), got, want)
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := Cycle(6)
	sub, orig := g.InducedSubgraph([]int{0, 1, 2, 4})
	if sub.N() != 4 {
		t.Fatalf("N = %d", sub.N())
	}
	if sub.M() != 2 { // edges 0-1, 1-2; node 4 isolated
		t.Errorf("M = %d, want 2", sub.M())
	}
	if orig[3] != 4 {
		t.Errorf("orig mapping wrong: %v", orig)
	}
	// Duplicates are dropped.
	sub2, orig2 := g.InducedSubgraph([]int{3, 3, 2})
	if sub2.N() != 2 || len(orig2) != 2 {
		t.Error("duplicate nodes not deduplicated")
	}
}

func TestDegeneracy(t *testing.T) {
	if d := BinaryTree(15).Degeneracy(); d != 1 {
		t.Errorf("tree degeneracy = %d, want 1", d)
	}
	if d := Complete(6).Degeneracy(); d != 5 {
		t.Errorf("K6 degeneracy = %d, want 5", d)
	}
	if d := Cycle(8).Degeneracy(); d != 2 {
		t.Errorf("C8 degeneracy = %d, want 2", d)
	}
}

func TestColoringCheckers(t *testing.T) {
	g := Cycle(4)
	good := []uint32{0, 1, 0, 1}
	bad := []uint32{0, 1, 1, 0}
	if !g.IsProperColoring(good) {
		t.Error("proper coloring rejected")
	}
	if g.IsProperColoring(bad) {
		t.Error("improper coloring accepted")
	}
	if c := g.CountConflicts(bad); c != 2 { // edges (1,2) and (3,0)
		t.Errorf("conflicts = %d, want 2", c)
	}
	if g.IsProperColoring([]uint32{0, 1}) {
		t.Error("short color slice accepted")
	}
}

func TestGNPHandshakeQuick(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%30 + 2
		g := GNP(n, 0.3, seed)
		sum := 0
		for v := 0; v < n; v++ {
			sum += g.Degree(v)
		}
		return sum == 2*g.M()
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// CompleteBipartite returns K_{a,b}: nodes 0..a-1 on one side,
// a..a+b-1 on the other.
func CompleteBipartite(a, b int) *Graph {
	bld := NewBuilder(a + b)
	bld.Grow(a * b)
	for u := 0; u < a; u++ {
		for v := a; v < a+b; v++ {
			bld.add(u, v)
		}
	}
	return bld.Build()
}

// Circulant returns the circulant graph C_n(offsets): node i is adjacent
// to i±o (mod n) for each offset o. Duplicate edges (e.g. o = n/2 twice)
// are skipped. Circulants with spread offsets make decent expanders.
func Circulant(n int, offsets []int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for _, o := range offsets {
			j := (i + o) % n
			if j < 0 {
				j += n
			}
			if i != j && !b.HasEdge(i, j) {
				b.MustAddEdge(i, j)
			}
		}
	}
	return b.Build()
}
