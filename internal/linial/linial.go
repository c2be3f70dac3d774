// Package linial implements Linial's deterministic color-reduction scheme
// [Lin92], the O(log* n)-round algorithm that turns any proper K-coloring
// into an O(Δ²·polylogΔ)-coloring. The paper uses it twice: to produce
// the input K-coloring of Lemma 2.1 (symmetry breaking for the shared
// hash function), and inside the MIS step on the constant-degree
// candidate-conflict graph.
//
// One reduction step: pick a prime q and degree t with q^(t+1) ≥ K and
// q > Δ·t. A color x ∈ [K] is encoded as the polynomial f_x over GF(q)
// whose coefficients are the base-q digits of x. Distinct colors give
// distinct polynomials of degree ≤ t, which agree on at most t points, so
// a node with ≤ Δ differently-colored neighbors can pick an evaluation
// point e with f_u(e) ≠ f_w(e) for every neighbor w; the new color
// (e, f_u(e)) ∈ [q²] is proper. Because (q, t) depend only on (K, Δ),
// every node derives the same schedule of steps locally; one step costs
// one CONGEST round (exchange current colors).
package linial

import "fmt"

// Step describes one Linial reduction round.
type Step struct {
	Q    uint64 // prime field size
	T    uint64 // polynomial degree bound
	NewK uint64 // resulting color-space size, Q²
}

// Schedule returns the deterministic sequence of reduction steps that a
// K-coloring of a graph with maximum degree maxDeg goes through until no
// step shrinks the color space further. The schedule has length
// O(log* K) and ends with a color space of size O(maxDeg²·polylog maxDeg).
func Schedule(k uint64, maxDeg int) []Step {
	var steps []Step
	for i := 0; i < 128; i++ { // hard cap; log* K is tiny
		st, ok := stepFor(k, maxDeg)
		if !ok || st.NewK >= k {
			return steps
		}
		steps = append(steps, st)
		k = st.NewK
	}
	panic("linial: schedule did not converge")
}

// stepFor picks the smallest prime q (with its degree t) usable for one
// reduction from k colors at maximum degree maxDeg.
func stepFor(k uint64, maxDeg int) (Step, bool) {
	if k <= 2 {
		return Step{}, false
	}
	for q := uint64(2); q < 1<<32; q = nextPrime(q + 1) {
		if !isPrime(q) {
			continue
		}
		t := degreeFor(k, q)
		if q > uint64(maxDeg)*t {
			return Step{Q: q, T: t, NewK: q * q}, true
		}
	}
	return Step{}, false
}

// degreeFor returns the smallest t ≥ 1 with q^(t+1) ≥ k.
func degreeFor(k, q uint64) uint64 {
	t := uint64(1)
	pow := q * q // q^(t+1)
	for pow < k {
		t++
		// Overflow-safe: values of interest stay far below 2^63.
		if pow > (uint64(1)<<62)/q {
			return t
		}
		pow *= q
	}
	return t
}

// Digits returns the t+1 base-q digits of x (the coefficients of f_x).
func Digits(x, q, t uint64) []uint64 {
	d := make([]uint64, t+1)
	for i := range d {
		d[i] = x % q
		x /= q
	}
	return d
}

// EvalPoly evaluates the polynomial with the given coefficients at point
// e over GF(q) (Horner).
func EvalPoly(coeffs []uint64, e, q uint64) uint64 {
	var acc uint64
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = (acc*e + coeffs[i]) % q
	}
	return acc
}

// NextColor executes one reduction step for a node: given its own color,
// the colors of its (differently-colored) neighbors, and the step
// parameters, it returns the node's new color in [q²].
func NextColor(own uint64, neighbors []uint64, st Step) (uint64, error) {
	q, t := st.Q, st.T
	fu := Digits(own, q, t)
	for e := uint64(0); e < q; e++ {
		mine := EvalPoly(fu, e, q)
		ok := true
		for _, nb := range neighbors {
			if nb == own {
				// A monochromatic neighbor means the input coloring was
				// improper; no evaluation point can help.
				return 0, fmt.Errorf("linial: neighbor shares color %d", own)
			}
			if EvalPoly(Digits(nb, q, t), e, q) == mine {
				ok = false
				break
			}
		}
		if ok {
			return e*q + mine, nil
		}
	}
	return 0, fmt.Errorf("linial: no evaluation point for color %d with %d neighbors (q=%d t=%d)",
		own, len(neighbors), q, t)
}

// ColorGraph runs the full schedule centrally on a graph given as
// adjacency lists, starting from the trivial coloring by node ID. It
// returns the final coloring and its color-space size. This is the
// reference implementation used by tests and by the models that allow
// free local computation on gathered subgraphs.
func ColorGraph(adj [][]int32, maxDeg int) ([]uint64, uint64, error) {
	n := len(adj)
	colors := make([]uint64, n)
	for v := range colors {
		colors[v] = uint64(v)
	}
	k := uint64(n)
	if k < 2 {
		k = 2
	}
	for _, st := range Schedule(k, maxDeg) {
		next := make([]uint64, n)
		for v := range adj {
			nbr := make([]uint64, 0, len(adj[v]))
			for _, w := range adj[v] {
				nbr = append(nbr, colors[w])
			}
			c, err := NextColor(colors[v], nbr, st)
			if err != nil {
				return nil, 0, err
			}
			next[v] = c
		}
		colors = next
		k = st.NewK
	}
	return colors, k, nil
}

func isPrime(n uint64) bool {
	if n < 2 {
		return false
	}
	for d := uint64(2); d*d <= n; d++ {
		if n%d == 0 {
			return false
		}
	}
	return true
}

func nextPrime(n uint64) uint64 {
	for !isPrime(n) {
		n++
	}
	return n
}
