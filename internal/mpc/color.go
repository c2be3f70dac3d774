package mpc

import (
	"fmt"
	"math"
	"math/bits"

	"smallbandwidth/internal/core"
	"smallbandwidth/internal/gf2"
	"smallbandwidth/internal/graph"
)

// Options configures the MPC coloring algorithms.
type Options struct {
	// Sublinear selects the Theorem 1.5 layout (node data spread over
	// many machines, Section 5 aggregation trees); otherwise the
	// Theorem 1.4 linear-memory layout is used (every node's edges and
	// list co-located on one machine).
	Sublinear bool
	// S overrides the per-machine memory in words (0 = derived: Θ(n) in
	// the linear regime, Θ(n^Alpha) in the sublinear regime).
	S int
	// Alpha is the sublinear memory exponent (0 = default 0.5).
	Alpha float64
	// LambdaCap caps the seed-segment width (0 = default 16).
	LambdaCap int
}

// Result reports the coloring and measured resources.
type Result struct {
	Colors          []uint32
	Rounds          int
	Machines        int
	S               int
	HighWaterMemory int
	HighWaterIO     int
	Iterations      int
	FinishedLocally bool // residual instance solved on one machine (Thm 1.4 path)
}

// mpcNode keeps one node's protocol state. Neighbor sets are sorted
// int32 slices, not maps: every iteration over them is in ascending
// order, so the floating-point accumulations of the derandomization are
// evaluated in one fixed order and the whole run is bit-deterministic.
type mpcNode struct {
	alive    bool
	colored  bool
	color    uint32
	list     []uint32
	cands    []uint32
	aliveNbr []int32  // still-uncolored neighbors, sorted
	conflict []int32  // conflict neighbors of the current iteration, sorted
	k1       int      // candidates with the current bit set
	coin     gf2.Coin // Pr[bit = 1] = k1/|cands|, built once per candidate bit
	phi      int
}

// ListColorMPC solves the (degree+1)-list-coloring instance in the MPC
// model: Theorem 1.4 with linear memory, Theorem 1.5 with sublinear
// memory. Node IDs serve as the input coloring; one candidate-color bit
// is fixed per O(logS-segment) constant-round derandomization pass; the
// MIS-avoidance accuracy (Section 4) colors ≥ 1/4 of the uncolored nodes
// per iteration; the linear regime ships the residual instance to one
// machine once it fits (the n/Δ² point of the proof), the sublinear
// regime iterates to completion (the "+ log n" term of Theorem 1.5; see
// DESIGN.md for the Lemma 4.2 substitution).
func ListColorMPC(inst *graph.Instance, opts Options) (*Result, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	g := inst.G
	n := g.N()
	if n == 0 {
		return &Result{}, nil
	}
	totalWords := 0
	for v := 0; v < n; v++ {
		totalWords += 3 * (2*g.Degree(v) + len(inst.Lists[v]))
	}
	if opts.Alpha == 0 {
		opts.Alpha = 0.5
	}
	if opts.LambdaCap == 0 {
		opts.LambdaCap = 16
	}
	s := opts.S
	if s == 0 {
		if opts.Sublinear {
			s = max(int(8*math.Pow(float64(n), opts.Alpha)), 64)
		} else {
			// Θ(n) with a constant that fits a Δ = n−1 node's edges and
			// list (≈ 9n words) plus slack.
			s = max(12*n, 64)
		}
	}
	m := max((2*totalWords)/s, 1) + 1
	rt, err := NewRuntime(m, s)
	if err != nil {
		return nil, err
	}
	defer rt.Close()

	delta := g.MaxDegree()
	logC := bits.Len32(inst.C - 1)
	effLogC := max(logC, 1)
	b := bits.Len64(10 * uint64(delta+1) * uint64(delta+1) * uint64(effLogC))
	a := max(bits.Len64(uint64(n-1)), 1)
	hm := max(a, b)
	if hm > 63 {
		return nil, fmt.Errorf("mpc: hash degree %d exceeds 63", hm)
	}
	fam, err := gf2.NewFamily(hm, 2)
	if err != nil {
		return nil, err
	}
	d := fam.SeedBits()
	// λ: the vector of 2^λ conditional expectations must fit the
	// aggregation-tree IO budget: 2^λ ≤ √S.
	lambda := max(1, min(min(bits.Len(uint(isqrt(rt.S)))-1, d), opts.LambdaCap))

	// Node-to-machine placement for IO accounting: first-fit by size in
	// the linear regime; in the sublinear regime records are spread
	// round-robin so per-node placement does not exist (aggregation
	// trees carry everything).
	nodeMachine := make([]int, n)
	if opts.Sublinear {
		// Records (edges, list entries) are spread round-robin; register
		// the resulting per-machine residency with the runtime.
		loads := make([]int, rt.M)
		i := 0
		add := func(words int) {
			loads[i%rt.M] += words
			i++
		}
		for v := 0; v < n; v++ {
			for range g.Neighbors(v) {
				add(3)
			}
			for range inst.Lists[v] {
				add(3)
			}
		}
		if err := rt.CheckMemory(loads); err != nil {
			return nil, fmt.Errorf("mpc: sublinear layout does not fit: %w", err)
		}
	}
	if !opts.Sublinear {
		loads := make([]int, rt.M)
		for v := 0; v < n; v++ {
			size := 3 * (2*g.Degree(v) + len(inst.Lists[v]))
			bestM := 0
			for i := 1; i < rt.M; i++ {
				if loads[i] < loads[bestM] {
					bestM = i
				}
			}
			nodeMachine[v] = bestM
			loads[bestM] += size
		}
		if err := rt.CheckMemory(loads); err != nil {
			return nil, fmt.Errorf("mpc: linear layout does not fit: %w", err)
		}
	}

	nodes := make([]*mpcNode, n)
	for v := 0; v < n; v++ {
		nodes[v] = &mpcNode{
			alive:    true,
			list:     append([]uint32(nil), inst.Lists[v]...),
			aliveNbr: append([]int32(nil), g.Neighbors(v)...),
		}
	}

	res := &Result{Machines: rt.M, S: rt.S}
	depth := rt.AggDepth()

	conflictEdgeIO := func() []int {
		io := make([]int, rt.M)
		for v, nd := range nodes {
			if !nd.alive {
				continue
			}
			for _, u32 := range nd.conflict {
				u := int(u32)
				if opts.Sublinear {
					io[(v*31+u)%rt.M] += 6
				} else {
					io[nodeMachine[v]] += 3
					io[nodeMachine[u]] += 3
				}
			}
		}
		return io
	}

	for iter := 0; ; iter++ {
		// Status aggregation: U and Δcur over the tree.
		u, deltaCur := 0, 0
		for _, nd := range nodes {
			if nd.alive {
				u++
				deltaCur = max(deltaCur, len(nd.aliveNbr))
			}
		}
		if err := rt.ChargeRounds(depth, rt.UniformIO(3*isqrt(rt.S))); err != nil {
			return nil, err
		}
		if u == 0 {
			break
		}
		if iter > 16*bits.Len(uint(n))+64 {
			return nil, fmt.Errorf("mpc: iteration budget exceeded")
		}

		// Linear-memory finish: ship the residual instance to machine 0
		// once it fits (≈ the n/Δ² point of Theorem 1.4's proof).
		if !opts.Sublinear {
			residual := 0
			for _, nd := range nodes {
				if nd.alive {
					residual += 3 * (len(nd.aliveNbr) + len(nd.list))
				}
			}
			if residual <= rt.S/2 {
				io := rt.UniformIO(0)
				io[0] = residual
				if err := rt.ChargeRounds(depth, io); err != nil {
					return nil, err
				}
				if err := greedyResidual(g, nodes); err != nil {
					return nil, err
				}
				if err := rt.ChargeRound(io); err != nil { // distribute colors
					return nil, err
				}
				res.FinishedLocally = true
				break
			}
		}
		res.Iterations++

		// Trim candidates (|L| ≤ uncolored degree + 1, Equation (9)).
		for _, nd := range nodes {
			if !nd.alive {
				nd.cands = nil
				nd.conflict = nd.conflict[:0]
				continue
			}
			keep := min(len(nd.aliveNbr)+1, len(nd.list))
			nd.cands = append(nd.cands[:0], nd.list[:keep]...)
			nd.conflict = append(nd.conflict[:0], nd.aliveNbr...)
		}

		for l := 1; l <= logC; l++ {
			bitPos := logC - l
			// k1 computation and exchange across conflict edges. In the
			// sublinear regime computing k1(u) itself costs a group
			// aggregation over u's list machines.
			if opts.Sublinear {
				if err := rt.ChargeRounds(2*depth, rt.UniformIO(3*isqrt(rt.S))); err != nil {
					return nil, err
				}
			}
			for v, nd := range nodes {
				if nd.alive {
					nd.k1 = countBit(nd.cands, bitPos)
					nd.coin, err = gf2.NewCoin(fam, uint64(v), b, uint64(nd.k1), uint64(len(nd.cands)))
					if err != nil {
						return nil, err
					}
				}
			}
			if err := rt.ChargeRound(conflictEdgeIO()); err != nil {
				return nil, err
			}

			// Derandomize the seed segment by segment. Each assignment's
			// conditioned basis is built into one scratch basis.
			basis := gf2.NewBasis()
			bs := gf2.NewBasis()
			var seed gf2.Vec128
			for segStart := 0; segStart < d; segStart += lambda {
				segW := min(lambda, d-segStart)
				nAssign := 1 << segW
				best, bestVal := 0, 0.0
				for r := 0; r < nAssign; r++ {
					basis.CloneInto(bs)
					for t := 0; t < segW; t++ {
						bs.FixBit(segStart+t, r>>uint(t)&1 == 1)
					}
					total := 0.0
					for v, nd := range nodes {
						if !nd.alive {
							continue
						}
						for _, w32 := range nd.conflict {
							w := int(w32)
							if w < v {
								continue
							}
							nw := nodes[w]
							total += core.EdgeExpectation(bs, nd.coin, nw.coin,
								nd.k1, len(nd.cands)-nd.k1, nw.k1, len(nw.cands)-nw.k1)
						}
					}
					if r == 0 || total < bestVal {
						best, bestVal = r, total
					}
				}
				// Vector aggregation up the tree + argmin broadcast.
				vecIO := rt.UniformIO(min(isqrt(rt.S)*(2+nAssign), rt.S))
				if err := rt.ChargeRounds(depth, vecIO); err != nil {
					return nil, err
				}
				if err := rt.ChargeRounds(depth, rt.UniformIO(3)); err != nil {
					return nil, err
				}
				for t := 0; t < segW; t++ {
					val := best>>uint(t)&1 == 1
					basis.FixBit(segStart+t, val)
					seed = seed.WithBit(segStart+t, val)
				}
			}

			// Every alive node evaluates its coin, filters, exchanges bit.
			bitsChosen := make([]bool, n)
			for v, nd := range nodes {
				if !nd.alive {
					continue
				}
				bitsChosen[v] = nd.coin.Value(seed)
				nd.cands = filterBit(nd.cands, bitPos, bitsChosen[v])
				if len(nd.cands) == 0 {
					return nil, fmt.Errorf("mpc: node %d candidate set emptied", v)
				}
			}
			if err := rt.ChargeRound(conflictEdgeIO()); err != nil {
				return nil, err
			}
			for v, nd := range nodes {
				if !nd.alive {
					continue
				}
				kept := nd.conflict[:0]
				for _, w := range nd.conflict {
					if bitsChosen[w] == bitsChosen[v] {
						kept = append(kept, w)
					}
				}
				nd.conflict = kept
			}
		}

		// MIS-free keep step (1 exchange round) and announcement with
		// list updates via set difference (constant rounds, Lemma 5.1).
		for _, nd := range nodes {
			nd.phi = len(nd.conflict)
		}
		if err := rt.ChargeRound(conflictEdgeIO()); err != nil {
			return nil, err
		}
		for v, nd := range nodes {
			if !nd.alive {
				continue
			}
			switch {
			case nd.phi == 0:
				nd.colored, nd.color = true, nd.cands[0]
			case nd.phi == 1:
				partner := int(nd.conflict[0])
				if nodes[partner].phi > 1 || v > partner {
					nd.colored, nd.color = true, nd.cands[0]
				}
			}
		}
		if err := rt.ChargeRounds(2+depth, conflictEdgeIO()); err != nil {
			return nil, err
		}
		for v, nd := range nodes {
			if nd.colored && nd.alive {
				nd.alive = false
				for _, w := range nd.aliveNbr {
					other := nodes[w]
					other.aliveNbr = graph.SortedRemove(other.aliveNbr, v)
					if !other.colored {
						other.list = graph.RemoveColor(other.list, nd.color)
					}
				}
			}
		}
	}

	colors := make([]uint32, n)
	for v, nd := range nodes {
		if !nd.colored {
			return nil, fmt.Errorf("mpc: node %d left uncolored", v)
		}
		colors[v] = nd.color
	}
	if err := inst.VerifyColoring(colors); err != nil {
		return nil, fmt.Errorf("mpc: coloring invalid: %w", err)
	}
	res.Colors = colors
	res.Rounds = rt.Rounds
	res.HighWaterMemory = rt.HighWaterMemory
	res.HighWaterIO = rt.HighWaterIO
	return res, nil
}

// DeltaPlusOneMPC runs Observation 4.1: it synthesizes the
// (degree+1)-lists {0,…,deg(v)} in O(1) rounds (GroupRanks over the
// edge records gives every edge its position among its node's
// neighbors) and then colors the instance.
func DeltaPlusOneMPC(g *graph.Graph, opts Options) (*Result, error) {
	// Materialize directed edge records, sort, rank — exercising the
	// Section 5 tools exactly as the observation describes.
	s := opts.S
	if s == 0 {
		s = max(12*g.N(), 64)
	}
	// Enough machines that one machine's share (and thus its send+receive
	// volume during the sort redistribution) stays well under S.
	rtProbe, err := NewRuntime(max(18*g.M()/s, 1)+2, s)
	if err != nil {
		return nil, err
	}
	defer rtProbe.Close()
	var recs []Rec
	g.Edges(func(u, v int) {
		recs = append(recs, Rec{uint64(u), uint64(v), 0}, Rec{uint64(v), uint64(u), 0})
	})
	dist, err := NewDist(rtProbe, recs)
	if err != nil {
		return nil, err
	}
	if err := dist.Sort(rtProbe); err != nil {
		return nil, err
	}
	if err := dist.GroupRanks(rtProbe); err != nil {
		return nil, err
	}
	inst := graph.DeltaPlusOneInstance(g)
	res, err := ListColorMPC(inst, opts)
	if err != nil {
		return nil, err
	}
	res.Rounds += rtProbe.Rounds
	return res, nil
}

// greedyResidual colors all still-alive nodes at machine 0.
func greedyResidual(g *graph.Graph, nodes []*mpcNode) error {
	for v := 0; v < g.N(); v++ {
		nd := nodes[v]
		if !nd.alive {
			continue
		}
		taken := map[uint32]bool{}
		for _, w := range g.Neighbors(v) {
			if nodes[w].colored {
				taken[nodes[w].color] = true
			}
		}
		found := false
		for _, c := range nd.list {
			if !taken[c] {
				nd.color, nd.colored, found = c, true, true
				break
			}
		}
		if !found {
			return fmt.Errorf("mpc: residual greedy failed at node %d", v)
		}
	}
	for _, nd := range nodes {
		if nd.colored {
			nd.alive = false
		}
	}
	return nil
}

func countBit(cands []uint32, bitPos int) int {
	k := 0
	for _, c := range cands {
		if c>>uint(bitPos)&1 == 1 {
			k++
		}
	}
	return k
}

func filterBit(cands []uint32, bitPos int, val bool) []uint32 {
	out := cands[:0]
	for _, c := range cands {
		if (c>>uint(bitPos)&1 == 1) == val {
			out = append(out, c)
		}
	}
	return out
}
