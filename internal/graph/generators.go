package graph

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"smallbandwidth/internal/prng"
)

// The deterministic generators below feed edges through the Builder's
// unchecked add: their edge streams are duplicate-free by construction
// (each unordered pair is emitted at most once), so they skip the
// hash-set membership test and the build stays two counting-sort passes
// over flat arrays — no per-node allocation at any size. Generators that
// genuinely need membership queries (Circulant, Caveman's ring closure,
// RandomRegular's repair loop) use the checked path; the Builder keeps
// its duplicate set consistent across mixed checked/unchecked use.

// Path returns the path graph P_n (diameter n-1).
func Path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.add(i, i+1)
	}
	return b.Build()
}

// Cycle returns the cycle graph C_n (n ≥ 3).
func Cycle(n int) *Graph {
	if n < 3 {
		panic("graph: Cycle requires n >= 3")
	}
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.add(i, (i+1)%n)
	}
	return b.Build()
}

// Complete returns the complete graph K_n.
func Complete(n int) *Graph {
	b := NewBuilder(n)
	b.Grow(n * (n - 1) / 2)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			b.add(u, v)
		}
	}
	return b.Build()
}

// Star returns the star graph on n nodes with center 0.
func Star(n int) *Graph {
	b := NewBuilder(n)
	for v := 1; v < n; v++ {
		b.add(0, v)
	}
	return b.Build()
}

// BinaryTree returns the complete-ish binary tree on n nodes with root 0
// (node i has children 2i+1 and 2i+2 when in range).
func BinaryTree(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		if l := 2*i + 1; l < n {
			b.add(i, l)
		}
		if r := 2*i + 2; r < n {
			b.add(i, r)
		}
	}
	return b.Build()
}

// Grid2D returns the rows×cols grid graph.
func Grid2D(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	b.Grow(2 * rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.add(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.add(id(r, c), id(r+1, c))
			}
		}
	}
	return b.Build()
}

// Torus2D returns the rows×cols torus (grid with wraparound); requires
// rows, cols ≥ 3 so that no duplicate edges arise.
func Torus2D(rows, cols int) *Graph {
	if rows < 3 || cols < 3 {
		panic("graph: Torus2D requires rows, cols >= 3")
	}
	b := NewBuilder(rows * cols)
	b.Grow(2 * rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			b.add(id(r, c), id(r, (c+1)%cols))
			b.add(id(r, c), id((r+1)%rows, c))
		}
	}
	return b.Build()
}

// Hypercube returns the dim-dimensional hypercube graph on 2^dim nodes.
func Hypercube(dim int) *Graph {
	if dim < 0 || dim > 20 {
		panic("graph: Hypercube dimension out of range")
	}
	n := 1 << dim
	b := NewBuilder(n)
	b.Grow(n * dim / 2)
	for v := 0; v < n; v++ {
		for bit := 0; bit < dim; bit++ {
			w := v ^ (1 << bit)
			if w > v {
				b.add(v, w)
			}
		}
	}
	return b.Build()
}

// Barbell returns two cliques of size k joined by a path of pathLen extra
// nodes. Total n = 2k + pathLen. High diameter with high-degree ends —
// the stress case for D-dependent round bounds.
func Barbell(k, pathLen int) *Graph {
	n := 2*k + pathLen
	b := NewBuilder(n)
	for u := 0; u < k; u++ {
		for v := u + 1; v < k; v++ {
			b.add(u, v)
		}
	}
	for u := k; u < 2*k; u++ {
		for v := u + 1; v < 2*k; v++ {
			b.add(u, v)
		}
	}
	// Path through nodes 2k .. 2k+pathLen-1 connecting node 0 and node k.
	prev := 0
	for i := 0; i < pathLen; i++ {
		b.add(prev, 2*k+i)
		prev = 2*k + i
	}
	b.add(prev, k)
	return b.Build()
}

// Caveman returns cliques of size k connected in a ring by single edges
// (a relaxed caveman graph): clusters clusters of k nodes each.
func Caveman(clusters, k int) *Graph {
	if clusters < 2 || k < 2 {
		panic("graph: Caveman requires clusters >= 2, k >= 2")
	}
	n := clusters * k
	b := NewBuilder(n)
	for c := 0; c < clusters; c++ {
		base := c * k
		for u := 0; u < k; u++ {
			for v := u + 1; v < k; v++ {
				b.add(base+u, base+v)
			}
		}
	}
	for c := 0; c < clusters; c++ {
		u := c*k + k - 1
		v := ((c + 1) % clusters) * k
		if !b.HasEdge(u, v) {
			b.MustAddEdge(u, v)
		}
	}
	return b.Build()
}

// GNP returns an Erdős–Rényi G(n,p) graph drawn deterministically from
// seed. Sampling uses geometric edge-skipping [Batagelj–Brandes 2005],
// so the cost is O(n + m) rather than O(n²), which makes 10⁶+-node
// sparse graphs practical benchmark inputs.
func GNP(n int, p float64, seed uint64) *Graph {
	b := NewBuilder(n)
	if n < 2 || p <= 0 {
		return b.Build()
	}
	if p >= 1 {
		return Complete(n)
	}
	src := prng.New(seed)
	lq := math.Log1p(-p) // log(1-p) < 0
	// Enumerate pairs (v, w) with w < v in row-major order, jumping ahead
	// by a geometric number of non-edges each step. w advances in int64:
	// a single skip can reach n² ≈ 10¹² for n = 10⁶, which overflows int
	// on 32-bit platforms; the reduction loop brings it below n before
	// it is used as a node ID.
	v, w := 1, int64(-1)
	for v < n {
		skip := math.Floor(math.Log1p(-src.Float64()) / lq)
		if skip > float64(n)*float64(n) {
			break
		}
		w += 1 + int64(skip)
		for w >= int64(v) && v < n {
			w -= int64(v)
			v++
		}
		if v < n {
			b.add(v, int(w))
		}
	}
	return b.Build()
}

// RandomRegular returns a random d-regular graph on n nodes via the
// configuration model with restarts (n·d must be even, d < n). The result
// is simple (no loops or multi-edges) and drawn deterministically from
// seed.
func RandomRegular(n, d int, seed uint64) (*Graph, error) {
	if d >= n {
		return nil, fmt.Errorf("graph: RandomRegular requires d < n (got d=%d n=%d)", d, n)
	}
	if n*d%2 != 0 {
		return nil, fmt.Errorf("graph: RandomRegular requires n*d even (got n=%d d=%d)", n, d)
	}
	src := prng.New(seed)
	const maxAttempts = 200
	for attempt := 0; attempt < maxAttempts; attempt++ {
		stubs := make([]int, 0, n*d)
		for v := 0; v < n; v++ {
			for i := 0; i < d; i++ {
				stubs = append(stubs, v)
			}
		}
		src.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
		type pair struct{ u, v int }
		edges := make([]pair, 0, n*d/2)
		for i := 0; i < len(stubs); i += 2 {
			edges = append(edges, pair{stubs[i], stubs[i+1]})
		}
		// Repair self-loops and duplicates by double-edge swaps instead of
		// restarting: swap a bad pair with a random good one; each swap
		// preserves all degrees.
		key := func(u, v int) uint64 { return edgeKey(u, v) }
		count := map[uint64]int{}
		isBad := func(p pair) bool { return p.u == p.v || count[key(p.u, p.v)] > 1 }
		for _, p := range edges {
			if p.u != p.v {
				count[key(p.u, p.v)]++
			}
		}
		ok := true
		for budget := 40 * len(edges); ; budget-- {
			badIdx := -1
			for i, p := range edges {
				if isBad(p) {
					badIdx = i
					break
				}
			}
			if badIdx == -1 {
				break
			}
			if budget <= 0 {
				ok = false
				break
			}
			j := src.Intn(len(edges))
			if j == badIdx {
				continue
			}
			a, b := edges[badIdx], edges[j]
			// Swap endpoints: (a.u,a.v),(b.u,b.v) → (a.u,b.v),(b.u,a.v).
			na, nb := pair{a.u, b.v}, pair{b.u, a.v}
			if na.u == na.v || nb.u == nb.v ||
				count[key(na.u, na.v)] > 0 || count[key(nb.u, nb.v)] > 0 {
				continue
			}
			if a.u != a.v {
				count[key(a.u, a.v)]--
			}
			if b.u != b.v {
				count[key(b.u, b.v)]--
			}
			count[key(na.u, na.v)]++
			count[key(nb.u, nb.v)]++
			edges[badIdx], edges[j] = na, nb
		}
		if !ok {
			continue
		}
		b := NewBuilder(n)
		valid := true
		for _, p := range edges {
			if err := b.AddEdge(p.u, p.v); err != nil {
				valid = false
				break
			}
		}
		if valid {
			return b.Build(), nil
		}
	}
	return nil, fmt.Errorf("graph: RandomRegular(n=%d,d=%d) failed after %d attempts", n, d, maxAttempts)
}

// MustRandomRegular is RandomRegular but panics on error; for use in
// examples and benchmarks with known-good parameters.
func MustRandomRegular(n, d int, seed uint64) *Graph {
	g, err := RandomRegular(n, d, seed)
	if err != nil {
		panic(err)
	}
	return g
}

// RandomGeometric places n points uniformly in the unit square
// (deterministically from seed) and connects pairs within distance
// radius — the standard model for wireless interference graphs.
func RandomGeometric(n int, radius float64, seed uint64) *Graph {
	src := prng.New(seed)
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = src.Float64()
		ys[i] = src.Float64()
	}
	b := NewBuilder(n)
	r2 := radius * radius
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			dx, dy := xs[u]-xs[v], ys[u]-ys[v]
			// float64() rounds each square, so no GOARCH fuses them into
			// a multiply-add and the same seed gives the same graph.
			if float64(dx*dx)+float64(dy*dy) <= r2 {
				b.add(u, v)
			}
		}
	}
	return b.Build()
}

// ChungLu returns a Chung–Lu random graph with the given expected-degree
// weights: edge {u,v} appears with probability min(1, w_u·w_v / Σw).
// Sampling uses the Miller–Hagberg weight-ordered geometric-skipping
// scheme [MH11]: nodes are visited in non-increasing weight order, and
// within a row the sampler jumps over rejected partners geometrically
// under an upper-bound probability that only decreases along the row, so
// the cost is O(n log n + m) rather than the Θ(n²) of pair-by-pair
// sampling — the construction path of the million-node scenario tier.
func ChungLu(weights []float64, seed uint64) *Graph {
	n := len(weights)
	b := NewBuilder(n)
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if n < 2 || total <= 0 {
		return b.Build()
	}
	// Visit nodes in non-increasing weight order (ties by ID, so the
	// graph is deterministic in (weights, seed)).
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, c int32) int {
		return cmp.Compare(weights[c], weights[a])
	})
	src := prng.New(seed)
	for i := 0; i < n-1; i++ {
		u := order[i]
		wu := weights[u]
		if wu <= 0 {
			break // all remaining weights are 0: no further edges possible
		}
		j := i + 1
		// p bounds every remaining pair probability in this row: weights
		// are non-increasing along order, so p only shrinks as j advances.
		p := math.Min(wu*weights[order[j]]/total, 1)
		for j < n && p > 0 {
			if p < 1 {
				r := src.Float64()
				if r <= 0 {
					break // log(0): infinite skip, row exhausted
				}
				// Log1p keeps the denominator finite for p below one ulp
				// of 1.0 (log(1-p) would round to log(1) = 0 and the skip
				// to -Inf); a tiny p then yields a huge positive skip and
				// the row breaks cleanly, as the distribution demands.
				skip := math.Floor(math.Log(r) / math.Log1p(-p))
				if skip >= float64(n-j) {
					break
				}
				j += int(skip)
			}
			q := math.Min(wu*weights[order[j]]/total, 1)
			if src.Float64() < q/p {
				b.add(int(u), int(order[j]))
			}
			p = q
			j++
		}
	}
	return b.Build()
}

// PowerLawWeights returns n weights w_i = c·(i+1)^(-1/(β-1)) scaled so the
// average is avgDeg; for use with ChungLu to get heavy-tailed degrees.
func PowerLawWeights(n int, beta, avgDeg float64) []float64 {
	w := make([]float64, n)
	sum := 0.0
	for i := range w {
		w[i] = math.Pow(float64(i+1), -1/(beta-1))
		sum += w[i]
	}
	scale := avgDeg * float64(n) / sum
	for i := range w {
		w[i] *= scale
	}
	return w
}
