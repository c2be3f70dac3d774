package graph

// Differential suite for the CSR substrate: every graph the counting-
// sort Builder produces is compared field by field against a retained
// reference builder that constructs per-node adjacency slices the way
// the pre-CSR implementation did (append per endpoint, comparison-sort
// per row). Adjacency, degrees, Δ, HasEdge, and the edge-ID enumeration
// must agree bit for bit on every input, fuzzed edge lists included.

import (
	"slices"
	"testing"
)

// SortedHas reports whether the sorted node-ID slice a contains x.
func SortedHas(a []int32, x int) bool {
	_, ok := slices.BinarySearch(a, int32(x))
	return ok
}

// refGraph is the pre-CSR reference layout: one sorted slice per node.
type refGraph struct {
	n   int
	m   int
	adj [][]int32
}

// buildReference constructs the reference adjacency from an edge list,
// mirroring the original per-node-slice Builder.Build.
func buildReference(n int, edges [][2]int) *refGraph {
	deg := make([]int, n)
	for _, e := range edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	adj := make([][]int32, n)
	for v := 0; v < n; v++ {
		adj[v] = make([]int32, 0, deg[v])
	}
	for _, e := range edges {
		adj[e[0]] = append(adj[e[0]], int32(e[1]))
		adj[e[1]] = append(adj[e[1]], int32(e[0]))
	}
	for v := 0; v < n; v++ {
		slices.Sort(adj[v])
	}
	return &refGraph{n: n, m: len(edges), adj: adj}
}

// checkAgainstReference pins the CSR graph to the reference: shape,
// per-node adjacency (= arena subslices), cached Δ, HasEdge on a probe
// set, and the edge-ID enumeration invariants.
func checkAgainstReference(t *testing.T, g *Graph, ref *refGraph) {
	t.Helper()
	if g.N() != ref.n || g.M() != ref.m {
		t.Fatalf("shape (%d,%d) != reference (%d,%d)", g.N(), g.M(), ref.n, ref.m)
	}
	if g.NumArcs() != 2*ref.m {
		t.Fatalf("NumArcs %d != 2m = %d", g.NumArcs(), 2*ref.m)
	}
	off, nbr := g.CSR()
	if len(off) != ref.n+1 || len(nbr) != 2*ref.m {
		t.Fatalf("CSR array lengths (%d,%d) wrong for n=%d m=%d", len(off), len(nbr), ref.n, ref.m)
	}
	maxDeg := 0
	for v := 0; v < ref.n; v++ {
		want := ref.adj[v]
		if len(want) > maxDeg {
			maxDeg = len(want)
		}
		if g.Degree(v) != len(want) {
			t.Fatalf("Degree(%d) = %d, reference %d", v, g.Degree(v), len(want))
		}
		got := g.Neighbors(v)
		if !slices.Equal(got, want) {
			t.Fatalf("Neighbors(%d) = %v, reference %v", v, got, want)
		}
		// Edge-ID enumeration: eid(v,i) = ArcBase(v)+i indexes the arena
		// at exactly this adjacency entry, and ArcBase chains the offsets.
		if g.ArcBase(v) != off[v] {
			t.Fatalf("ArcBase(%d) = %d, offset table says %d", v, g.ArcBase(v), off[v])
		}
		for i := range want {
			if eid := int(g.ArcBase(v)) + i; nbr[eid] != want[i] {
				t.Fatalf("arena[eid(%d,%d)=%d] = %d, reference %d", v, i, eid, nbr[eid], want[i])
			}
		}
		if int(off[v+1]-off[v]) != len(want) {
			t.Fatalf("offset span of %d is %d, reference degree %d", v, off[v+1]-off[v], len(want))
		}
		// HasEdge agrees with reference membership for every neighbor and
		// for a non-neighbor probe.
		for _, w := range want {
			if !g.HasEdge(v, int(w)) {
				t.Fatalf("HasEdge(%d,%d) = false on a reference edge", v, w)
			}
		}
		if !SortedHas(want, v) && g.HasEdge(v, v) {
			t.Fatalf("HasEdge(%d,%d) self-probe true", v, v)
		}
	}
	if g.MaxDegree() != maxDeg {
		t.Fatalf("cached MaxDegree %d != reference %d", g.MaxDegree(), maxDeg)
	}
}

// edgesOf reconstructs the u<v edge list of a built graph.
func edgesOf(g *Graph) [][2]int {
	var edges [][2]int
	g.Edges(func(u, v int) { edges = append(edges, [2]int{u, v}) })
	return edges
}

func TestCSRMatchesReferenceOnGenerators(t *testing.T) {
	cases := []struct {
		name string
		g    *Graph
	}{
		{"Path17", Path(17)},
		{"Cycle9", Cycle(9)},
		{"Complete8", Complete(8)},
		{"Star12", Star(12)},
		{"Grid5x7", Grid2D(5, 7)},
		{"Torus4x5", Torus2D(4, 5)},
		{"Hypercube5", Hypercube(5)},
		{"BinaryTree20", BinaryTree(20)},
		{"Caveman3x4", Caveman(3, 4)},
		{"Barbell4_3", Barbell(4, 3)},
		{"Circulant12", Circulant(12, []int{1, 3, 6})},
		{"GNP60", GNP(60, 0.15, 9)},
		{"ChungLu80", ChungLu(PowerLawWeights(80, 2.5, 5), 4)},
		{"Regular24", MustRandomRegular(24, 5, 2)},
		{"Geometric40", RandomGeometric(40, 0.3, 11)},
		{"Empty0", func() *Graph { return NewBuilder(0).Build() }()},
		{"Isolated5", func() *Graph { return NewBuilder(5).Build() }()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkAgainstReference(t, c.g, buildReference(c.g.N(), edgesOf(c.g)))
		})
	}
}

// TestCSRCheckedUncheckedEquivalent pins that the checked AddEdge path
// and a mixed checked/unchecked insertion order produce the identical
// canonical CSR arrays: the counting sort is order-independent.
func TestCSRCheckedUncheckedEquivalent(t *testing.T) {
	edges := [][2]int{{4, 1}, {0, 5}, {2, 3}, {1, 0}, {5, 4}, {3, 0}, {2, 5}}
	checked := NewBuilder(6)
	for _, e := range edges {
		checked.MustAddEdge(e[0], e[1])
	}
	mixed := NewBuilder(6)
	for i, e := range edges {
		if i%2 == 0 {
			mixed.add(e[1], e[0]) // reversed and unchecked
		} else {
			if mixed.HasEdge(e[0], e[1]) {
				t.Fatalf("HasEdge(%v) true before insertion", e)
			}
			mixed.MustAddEdge(e[0], e[1])
		}
	}
	g1, g2 := checked.Build(), mixed.Build()
	if !g1.Equal(g2) {
		t.Fatal("checked and mixed insertion orders built different CSR arrays")
	}
}

// TestGraphEqual pins the exact-equality helper the snapshot round-trip
// tests rely on: equality is canonical-layout identity, so it holds
// across insertion orders and breaks on any node- or edge-set change.
func TestGraphEqual(t *testing.T) {
	g := GNP(40, 0.2, 7)
	same, err := FromEdges(g.N(), edgesOf(g))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(same) || !same.Equal(g) {
		t.Fatal("Equal false on a rebuilt identical graph")
	}
	if !g.Equal(g) {
		t.Fatal("Equal not reflexive")
	}
	edges := edgesOf(g)
	fewer, err := FromEdges(g.N(), edges[:len(edges)-1])
	if err != nil {
		t.Fatal(err)
	}
	if g.Equal(fewer) {
		t.Fatal("Equal true after dropping an edge")
	}
	wider, err := FromEdges(g.N()+1, edges)
	if err != nil {
		t.Fatal(err)
	}
	if g.Equal(wider) {
		t.Fatal("Equal true across different node counts")
	}
	var nilG *Graph
	if nilG.Equal(g) || g.Equal(nilG) {
		t.Fatal("Equal true against nil")
	}
	if !nilG.Equal(nil) {
		t.Fatal("Equal(nil, nil) false")
	}
}

// TestFromCSRRoundTripAndRejects pins the validated CSR constructor:
// every generator graph round-trips through its raw arrays into an Equal
// graph, and malformed arrays return errors instead of corrupt graphs.
func TestFromCSRRoundTripAndRejects(t *testing.T) {
	for _, g := range []*Graph{Path(9), Star(7), GNP(30, 0.2, 3), NewBuilder(0).Build(), NewBuilder(4).Build()} {
		off, nbr := g.CSR()
		got, err := FromCSR(slices.Clone(off), slices.Clone(nbr))
		if err != nil {
			t.Fatalf("FromCSR rejected a valid graph: %v", err)
		}
		if !g.Equal(got) {
			t.Fatal("FromCSR round trip produced a different graph")
		}
		if got.MaxDegree() != g.MaxDegree() {
			t.Fatalf("FromCSR MaxDegree %d != %d", got.MaxDegree(), g.MaxDegree())
		}
	}
	bad := []struct {
		name string
		off  []int32
		nbr  []int32
	}{
		{"empty-off", nil, nil},
		{"nonzero-start", []int32{1, 1}, nil},
		{"decreasing-off", []int32{0, 2, 1, 4}, []int32{1, 2, 0, 0}},
		{"bad-end", []int32{0, 1}, []int32{0, 0}},
		{"odd-arcs", []int32{0, 1, 1}, []int32{1}},
		{"self-loop", []int32{0, 1, 2}, []int32{0, 0}},
		{"out-of-range", []int32{0, 1, 2}, []int32{5, 0}},
		{"unsorted-row", []int32{0, 2, 3, 5}, []int32{2, 1, 0, 0, 0}},
		{"duplicate-arc", []int32{0, 2, 4}, []int32{1, 1, 0, 0}},
		{"asymmetric", []int32{0, 1, 2, 2}, []int32{1, 2}},
	}
	for _, c := range bad {
		if _, err := FromCSR(c.off, c.nbr); err == nil {
			t.Fatalf("FromCSR accepted malformed input %q", c.name)
		}
	}
}

// TestBuildRejectsUncheckedDuplicate pins the Build-time safety net of
// the unchecked path: a generator that violates its duplicate-free
// promise panics at Build instead of producing a corrupt graph.
func TestBuildRejectsUncheckedDuplicate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Build accepted a duplicate unchecked edge")
		}
	}()
	b := NewBuilder(3)
	b.add(0, 1)
	b.add(1, 0)
	b.Build()
}
