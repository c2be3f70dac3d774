// Package graph provides the undirected-graph substrate shared by every
// model simulator in this repository: adjacency structures, deterministic
// workload generators, structural properties (degree, diameter, BFS), and
// validation helpers for colorings and list-coloring instances.
//
// Nodes are identified by dense integers 0..N-1. Graphs are immutable after
// construction through a Builder; all algorithm packages treat *Graph as
// read-only, which makes it safe to share one instance across the
// goroutine-per-node CONGEST simulator without locking.
//
// # Memory layout
//
// A Graph is stored in compressed-sparse-row (CSR) form: one flat arc
// arena nbr holding every directed arc's target, and an offset table off
// with node v's sorted adjacency at nbr[off[v]:off[v+1]]. Neighbors(v)
// returns that subslice directly, so algorithm code is layout-agnostic,
// while bulk traversals (BFS, the engine's delivery tables, netdecomp's
// frontiers) walk two contiguous int32 arrays instead of chasing one
// pointer per node. The layout also defines the per-graph *edge IDs*
// used across the stack: arc i of node v has
//
//	eid(v, i) = off[v] + i
//
// — a stable dense index over all NumArcs() = 2·M() directed arcs, which
// lets consumers carve per-edge state (delivery slots, conflict flags,
// message buffers) out of single arenas instead of per-node slices.
// Offsets are int32, capping a graph at 2^31−1 arcs (~10^9 edges).
package graph

import (
	"fmt"
	"slices"
)

// Graph is an undirected simple graph with nodes 0..N-1 in CSR layout
// (see the package comment). Graphs are constructed via Builder (or a
// generator) and must not be mutated afterwards.
type Graph struct {
	n      int
	m      int     // number of undirected edges
	maxDeg int     // maximum degree, fixed at construction
	off    []int32 // len n+1; node v's arcs are nbr[off[v]:off[v+1]]
	nbr    []int32 // len 2m; arc targets, sorted ascending per node
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of undirected edges.
func (g *Graph) M() int { return g.m }

// NumArcs returns the number of directed arcs, 2·M(): the size of the
// edge-ID space eid(v,i) = ArcBase(v)+i.
func (g *Graph) NumArcs() int { return len(g.nbr) }

// ArcBase returns the edge ID of arc (v, 0), i.e. off[v]: neighbor index
// i of node v has edge ID ArcBase(v)+i.
func (g *Graph) ArcBase(v int) int32 { return g.off[v] }

// CSR exposes the raw layout — the offset table (len N+1) and the arc
// arena (len NumArcs) — for bulk traversals that want to walk the flat
// arrays directly. Both slices are owned by the graph and must not be
// modified.
func (g *Graph) CSR() (off, nbr []int32) { return g.off, g.nbr }

// Neighbors returns the sorted adjacency list of v: a subslice of the
// arc arena, owned by the graph — it must not be modified. Entry i is
// the target of edge ID ArcBase(v)+i.
func (g *Graph) Neighbors(v int) []int32 { return g.nbr[g.off[v]:g.off[v+1]] }

// Degree returns the degree of v.
func (g *Graph) Degree(v int) int { return int(g.off[v+1] - g.off[v]) }

// MaxDegree returns the maximum degree Δ of the graph (0 for empty
// graphs). Δ is computed once at construction; calls are O(1).
func (g *Graph) MaxDegree() int { return g.maxDeg }

// HasEdge reports whether {u,v} is an edge, via binary search.
func (g *Graph) HasEdge(u, v int) bool {
	_, ok := slices.BinarySearch(g.nbr[g.off[u]:g.off[u+1]], int32(v))
	return ok
}

// Edges calls fn once per undirected edge with u < v.
func (g *Graph) Edges(fn func(u, v int)) {
	for u := 0; u < g.n; u++ {
		for _, w := range g.nbr[g.off[u]:g.off[u+1]] {
			if int(w) > u {
				fn(u, int(w))
			}
		}
	}
}

// Equal reports exact graph equality: same node count and identical CSR
// arrays. Because Build canonicalizes the layout (per-row ascending
// arenas), two graphs are Equal iff they have the same node set and edge
// set — this is the comparison the snapshot round-trip tests pin a
// decoded graph against its original with.
func (g *Graph) Equal(h *Graph) bool {
	if g == nil || h == nil {
		return g == h
	}
	return g.n == h.n && slices.Equal(g.off, h.off) && slices.Equal(g.nbr, h.nbr)
}

// SortedRemove deletes x from the sorted node-ID slice a if present,
// preserving order. The model simulators keep their per-node neighbor
// sets as sorted slices: ascending iteration order makes their
// floating-point accumulations bit-deterministic, unlike map iteration.
func SortedRemove(a []int32, x int) []int32 {
	if i, ok := slices.BinarySearch(a, int32(x)); ok {
		return append(a[:i], a[i+1:]...)
	}
	return a
}

// RemoveColor deletes color c from a color list if present, preserving
// order. The list must be strictly sorted, as Instance.Validate requires
// of every list and as every order-preserving edit of one leaves it.
func RemoveColor(list []uint32, c uint32) []uint32 {
	if i, ok := slices.BinarySearch(list, c); ok {
		return append(list[:i], list[i+1:]...)
	}
	return list
}

// Builder accumulates edges and produces an immutable Graph. Duplicate
// edges and self-loops are rejected at AddEdge time.
//
// The builder stores nothing but the flat endpoint lists: Build runs a
// two-pass counting sort into the CSR arenas, so construction allocates
// O(1) slices regardless of node count — no per-node adjacency slices
// exist at any point. The duplicate-detection set of the checked
// AddEdge/HasEdge path materializes lazily; generators whose edge
// streams are duplicate-free by construction use the unchecked add and
// never pay for it (Build still verifies the no-duplicate invariant from
// the sorted arena).
type Builder struct {
	n    int
	seen map[uint64]struct{} // lazily built; nil until first checked op
	us   []int32
	vs   []int32
}

// NewBuilder returns a Builder for a graph on n nodes.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative node count")
	}
	return &Builder{n: n}
}

// Grow reserves capacity for at least m additional edges.
func (b *Builder) Grow(m int) {
	b.us = slices.Grow(b.us, m)
	b.vs = slices.Grow(b.vs, m)
}

func edgeKey(u, v int) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(u)<<32 | uint64(uint32(v))
}

// ensureSeen materializes the duplicate-detection set from the edges
// accumulated so far (checked and unchecked alike), so checked and
// unchecked adds may be mixed freely.
func (b *Builder) ensureSeen() {
	if b.seen != nil {
		return
	}
	b.seen = make(map[uint64]struct{}, len(b.us))
	for i := range b.us {
		b.seen[edgeKey(int(b.us[i]), int(b.vs[i]))] = struct{}{}
	}
}

// HasEdge reports whether the builder already contains edge {u,v}.
func (b *Builder) HasEdge(u, v int) bool {
	b.ensureSeen()
	_, ok := b.seen[edgeKey(u, v)]
	return ok
}

// AddEdge inserts the undirected edge {u,v}. It returns an error for
// out-of-range endpoints, self-loops, and duplicates.
func (b *Builder) AddEdge(u, v int) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at node %d", u)
	}
	b.ensureSeen()
	k := edgeKey(u, v)
	if _, dup := b.seen[k]; dup {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	b.seen[k] = struct{}{}
	b.us = append(b.us, int32(u))
	b.vs = append(b.vs, int32(v))
	return nil
}

// MustAddEdge is AddEdge but panics on error; for generators whose edge
// streams are valid by construction.
func (b *Builder) MustAddEdge(u, v int) {
	if err := b.AddEdge(u, v); err != nil {
		panic(err)
	}
}

// AddUnchecked inserts {u,v} without the hash-set membership test, for
// callers that have already deduplicated their edge stream (the store's
// ingest path buffers and dedups edges before the node count — and
// therefore the builder — can exist). A violated promise is still
// caught: BuildChecked's strict-ascent scan reports duplicates as an
// error, Build's as a panic. Range and self-loop violations panic — in
// every caller those are process invariants established before the add,
// never raw input properties.
func (b *Builder) AddUnchecked(u, v int) { b.add(u, v) }

// add is the unchecked fast path for generators whose edge streams are
// duplicate-free by construction: it skips the hash-set membership test
// (Build's sorted-arena scan still catches a violated promise), so the
// builder's footprint stays at the two endpoint arrays. Range and
// self-loop violations panic — they are generator bugs, never data.
func (b *Builder) add(u, v int) {
	if uint(u) >= uint(b.n) || uint(v) >= uint(b.n) || u == v {
		panic(fmt.Sprintf("graph: invalid unchecked edge (%d,%d) on %d nodes", u, v, b.n))
	}
	if b.seen != nil {
		b.seen[edgeKey(u, v)] = struct{}{}
	}
	b.us = append(b.us, int32(u))
	b.vs = append(b.vs, int32(v))
}

// Build finalizes the graph (see BuildChecked for the algorithm). It
// panics on arc-space overflow and on duplicate edges that slipped past
// the unchecked add path — construction-time invariant violations are
// generator bugs, never data. Input that originates outside the process
// (edge-list files, network payloads) must go through BuildChecked
// instead, which returns those violations as errors.
func (b *Builder) Build() *Graph {
	g, err := b.BuildChecked()
	if err != nil {
		panic(err)
	}
	return g
}

// BuildChecked finalizes the graph by a two-pass counting sort: pass one
// counts degrees into the offset table, pass two buckets every arc by
// its target and then scatters the buckets — walked in ascending target
// order — into the arc arena, which lands each adjacency row already
// sorted. Total O(n+m) time, O(m) transient space, zero comparison
// sorts and zero per-node allocations. The builder may not be reused
// afterwards.
//
// Unlike Build it returns errors instead of panicking: arc-space
// overflow and duplicate edges (reachable through the unchecked add
// path) are reported, never thrown. This is the finalizer for builders
// fed from user-controlled input, where malformed data must surface as
// a diagnostic rather than a crash.
func (b *Builder) BuildChecked() (*Graph, error) {
	n := b.n
	m := len(b.us)
	if 2*m > (1<<31)-1 {
		return nil, fmt.Errorf("graph: %d edges exceed the int32 arc-ID space", m)
	}
	off := make([]int32, n+1)
	for i := range b.us {
		off[b.us[i]+1]++
		off[b.vs[i]+1]++
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}

	// Bucket arcs by target: srcAt[k] is the source of the k-th arc in
	// (target-major, insertion-order) position — a stable counting sort
	// of all 2m arcs by target, reusing the offset table for bucket
	// starts via a cursor copy.
	cur := make([]int32, n)
	copy(cur, off[:n])
	srcAt := make([]int32, 2*m)
	for i := range b.us {
		u, v := b.us[i], b.vs[i]
		srcAt[cur[v]] = u
		cur[v]++
		srcAt[cur[u]] = v
		cur[u]++
	}

	// Scatter by source while sweeping targets ascending: each source
	// row fills in ascending target order, i.e. sorted.
	copy(cur, off[:n])
	nbr := make([]int32, 2*m)
	for t := 0; t < n; t++ {
		for k := off[t]; k < off[t+1]; k++ {
			s := srcAt[k]
			nbr[cur[s]] = int32(t)
			cur[s]++
		}
	}

	// One linear verification pass: strict per-row ascent proves the
	// no-duplicate invariant (the unchecked add path relies on it), and
	// the same sweep fixes Δ for the O(1) MaxDegree.
	maxDeg := 0
	for v := 0; v < n; v++ {
		row := nbr[off[v]:off[v+1]]
		if len(row) > maxDeg {
			maxDeg = len(row)
		}
		for i := 1; i < len(row); i++ {
			if row[i-1] == row[i] {
				return nil, fmt.Errorf("graph: duplicate edge (%d,%d) reached Build", v, row[i])
			}
		}
	}

	g := &Graph{n: n, m: m, maxDeg: maxDeg, off: off, nbr: nbr}
	b.seen = nil
	b.us, b.vs = nil, nil
	return g, nil
}

// FromEdges builds a graph from an explicit edge list.
func FromEdges(n int, edges [][2]int) (*Graph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		if err := b.AddEdge(e[0], e[1]); err != nil {
			return nil, err
		}
	}
	return b.Build(), nil
}

// FromCSR reconstructs a graph from raw CSR arrays, validating every
// structural invariant the Builder would have established: offset-table
// shape, per-row strict ascent (sortedness and no duplicates), target
// range, no self-loops, and arc symmetry. Unlike Build it returns errors
// instead of panicking — its inputs come from external data (snapshot
// decoding), not from generators with construction-time guarantees. The
// slices are retained by the graph and must not be modified afterwards.
func FromCSR(off, nbr []int32) (*Graph, error) {
	if len(off) == 0 {
		return nil, fmt.Errorf("graph: CSR offset table is empty")
	}
	n := len(off) - 1
	if off[0] != 0 {
		return nil, fmt.Errorf("graph: CSR offset table starts at %d, not 0", off[0])
	}
	if int64(off[n]) != int64(len(nbr)) {
		return nil, fmt.Errorf("graph: CSR offset table ends at %d for %d arcs", off[n], len(nbr))
	}
	if len(nbr)%2 != 0 {
		return nil, fmt.Errorf("graph: odd arc count %d (undirected graphs have 2m arcs)", len(nbr))
	}
	maxDeg := 0
	for v := 0; v < n; v++ {
		if off[v+1] < off[v] {
			return nil, fmt.Errorf("graph: CSR offset table decreases at node %d", v)
		}
		row := nbr[off[v]:off[v+1]]
		if len(row) > maxDeg {
			maxDeg = len(row)
		}
		for i, w := range row {
			if w < 0 || int(w) >= n {
				return nil, fmt.Errorf("graph: arc (%d,%d) out of range [0,%d)", v, w, n)
			}
			if int(w) == v {
				return nil, fmt.Errorf("graph: self-loop at node %d", v)
			}
			if i > 0 && row[i-1] >= w {
				return nil, fmt.Errorf("graph: adjacency of node %d not strictly ascending at index %d", v, i)
			}
		}
	}
	if err := checkSymmetry(off, nbr); err != nil {
		return nil, err
	}
	return &Graph{n: n, m: len(nbr) / 2, maxDeg: maxDeg, off: off, nbr: nbr}, nil
}

// checkSymmetry verifies that every arc has its reverse arc in O(n+m):
// a counting-sort transpose of the arc set, scattered in ascending
// source order so each transposed row lands sorted, then compared
// against the original arena. With strictly ascending rows (validated
// by the caller), in-set == out-set per node iff the arc relation is
// symmetric. Replaces the former per-arc binary-search sweep, which
// cost O(m·log Δ) — on a multi-million-arc store load the difference
// is tens of milliseconds versus hundreds.
func checkSymmetry(off, nbr []int32) error {
	n := len(off) - 1
	cur := make([]int32, n)
	copy(cur, off[:n])
	tr := make([]int32, len(nbr))
	for v := 0; v < n; v++ {
		for _, w := range nbr[off[v]:off[v+1]] {
			// Bound each row cursor so a skewed in-degree distribution in
			// hostile input cannot scatter past its row (or the arena).
			if cur[w] >= off[w+1] {
				return fmt.Errorf("graph: arc (%d,%d) has no reverse arc", v, w)
			}
			tr[cur[w]] = int32(v)
			cur[w]++
		}
	}
	for v := 0; v < n; v++ {
		row, trow := nbr[off[v]:off[v+1]], tr[off[v]:off[v+1]]
		for i := range row {
			if row[i] != trow[i] {
				return fmt.Errorf("graph: arc (%d,%d) has no reverse arc", v, row[i])
			}
		}
	}
	return nil
}

// FromCSRUnchecked adopts raw CSR arrays with only the O(n) shape checks
// needed for memory safety — offset-table bounds and monotonicity, so
// Neighbors can never slice out of range — and recomputes Δ from the
// offset table without touching the arc arena. Per-arc invariants
// (target range, sortedness, no self-loops, symmetry) are NOT verified:
// the caller vouches that the arrays came from an already-validated
// graph, e.g. the store's trusted load path re-reading a file this
// process just wrote. For data of unknown provenance use FromCSR. The
// slices are retained by the graph and must not be modified afterwards.
func FromCSRUnchecked(off, nbr []int32) (*Graph, error) {
	if len(off) == 0 {
		return nil, fmt.Errorf("graph: CSR offset table is empty")
	}
	n := len(off) - 1
	if off[0] != 0 {
		return nil, fmt.Errorf("graph: CSR offset table starts at %d, not 0", off[0])
	}
	if int64(off[n]) != int64(len(nbr)) {
		return nil, fmt.Errorf("graph: CSR offset table ends at %d for %d arcs", off[n], len(nbr))
	}
	if len(nbr)%2 != 0 {
		return nil, fmt.Errorf("graph: odd arc count %d (undirected graphs have 2m arcs)", len(nbr))
	}
	maxDeg := 0
	for v := 0; v < n; v++ {
		if off[v+1] < off[v] {
			return nil, fmt.Errorf("graph: CSR offset table decreases at node %d", v)
		}
		if deg := int(off[v+1] - off[v]); deg > maxDeg {
			maxDeg = deg
		}
	}
	return &Graph{n: n, m: len(nbr) / 2, maxDeg: maxDeg, off: off, nbr: nbr}, nil
}

// InducedSubgraph returns the subgraph induced by the given node set
// together with the mapping from new IDs to original IDs. The i-th node of
// the subgraph corresponds to nodes[i] (deduplicated, in given order).
func (g *Graph) InducedSubgraph(nodes []int) (*Graph, []int) {
	// Small selections on huge graphs (the per-cluster runs of the
	// Corollary 1.2 sequential reference) keep the map index; bulk
	// selections use a dense array and stay O(n + m_sub).
	var lookup func(int) (int32, bool)
	if g.n > 64 && len(nodes) < g.n/8 {
		index := make(map[int]int32, len(nodes))
		lookup = func(v int) (int32, bool) { i, ok := index[v]; return i, ok }
		nodes = dedupNodes(nodes, func(v int) bool { _, ok := index[v]; return ok },
			func(v, i int) { index[v] = int32(i) })
	} else {
		index := make([]int32, g.n)
		for i := range index {
			index[i] = -1
		}
		lookup = func(v int) (int32, bool) { i := index[v]; return i, i >= 0 }
		nodes = dedupNodes(nodes, func(v int) bool { return index[v] >= 0 },
			func(v, i int) { index[v] = int32(i) })
	}
	orig := nodes
	b := NewBuilder(len(orig))
	for newU, u := range orig {
		for _, w := range g.nbr[g.off[u]:g.off[u+1]] {
			if newW, ok := lookup(int(w)); ok && int(newW) > newU {
				b.add(newU, int(newW))
			}
		}
	}
	return b.Build(), orig
}

// dedupNodes filters nodes to first occurrences in given order,
// registering each kept node's new index through the provided hooks.
func dedupNodes(nodes []int, has func(int) bool, set func(v, i int)) []int {
	kept := make([]int, 0, len(nodes))
	for _, v := range nodes {
		if !has(v) {
			set(v, len(kept))
			kept = append(kept, v)
		}
	}
	return kept
}
