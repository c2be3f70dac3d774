// Package baseline provides the randomized comparison points for the
// paper's deterministic algorithms: Johansson's simple randomized
// (degree+1)-list coloring [Joh99] running on the CONGEST simulator
// (each uncolored node tries a uniformly random list color, keeps it if
// no neighbor picked the same, O(log n) rounds w.h.p.), and a
// random-seed variant of the paper's prefix process that skips the
// derandomization — together they isolate the price of determinism that
// experiment E10 measures.
package baseline

import (
	"fmt"
	"math/bits"

	"smallbandwidth/internal/congest"
	"smallbandwidth/internal/core"
	"smallbandwidth/internal/graph"
	"smallbandwidth/internal/linial"
	"smallbandwidth/internal/prng"
)

// RandResult reports a randomized run.
type RandResult struct {
	Colors []uint32
	Stats  congest.Stats
	Rounds int // coloring rounds (= Stats.Rounds)
}

const (
	tagTry   uint64 = congest.UserTagBase + 100 // [tag, color]
	tagFinal uint64 = congest.UserTagBase + 101 // [tag, color]
)

// RandomizedCONGEST runs Johansson's algorithm on the CONGEST simulator.
// Each round, every uncolored node draws a uniform color from its
// current list and sends it to its uncolored neighbors; nodes without a
// conflict keep the color and announce it. Terminates when all nodes are
// colored (the per-node seed derives deterministically from the run
// seed, so runs are reproducible).
func RandomizedCONGEST(inst *graph.Instance, seed uint64) (*RandResult, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	n := inst.G.N()
	colors := make([]uint32, n)
	maxRounds := 64 * (bits.Len(uint(n)) + 4)

	stats, err := congest.Run(inst.G, congest.Config{}, func(ctx *congest.Ctx) {
		src := prng.New(seed ^ (uint64(ctx.ID())+1)*0x9e3779b97f4a7c15)
		list := append([]uint32(nil), inst.Lists[ctx.ID()]...)
		// Alive neighbors tracked by neighbor index (no per-node map):
		// sends iterate the sorted adjacency, so traffic is deterministic.
		aliveNbr := make([]bool, ctx.Degree())
		for i := range aliveNbr {
			aliveNbr[i] = true
		}
		colored := false
		var myColor uint32
		for round := 0; round < maxRounds; round++ {
			var try uint32
			if !colored {
				try = list[src.Intn(len(list))]
				for i, w := range ctx.Neighbors() {
					if aliveNbr[i] {
						ctx.Send(int(w), congest.Message{tagTry, uint64(try)})
					}
				}
			}
			conflict := false
			for _, in := range ctx.Next() {
				switch in.Payload[0] {
				case tagTry:
					if !colored && uint32(in.Payload[1]) == try {
						conflict = true
					}
				case tagFinal:
					aliveNbr[ctx.NeighborIndex(in.From)] = false
					list = graph.RemoveColor(list, uint32(in.Payload[1]))
					// A neighbor finalized this color one round ago; our
					// tentative pick loses (it no longer defends its color
					// with tagTry messages).
					if !colored && uint32(in.Payload[1]) == try {
						conflict = true
					}
				}
			}
			if !colored && !conflict {
				colored = true
				myColor = try
				for i, w := range ctx.Neighbors() {
					if aliveNbr[i] {
						ctx.Send(int(w), congest.Message{tagFinal, uint64(try)})
					}
				}
				// One more round so the announcement drains, then leave.
				ctx.Next()
				break
			}
		}
		if !colored {
			panic(fmt.Sprintf("baseline: node %d uncolored after %d rounds (astronomically unlikely)",
				ctx.ID(), maxRounds))
		}
		colors[ctx.ID()] = myColor // each node writes only its own entry
	})
	if err != nil {
		return nil, err
	}
	if err := inst.VerifyColoring(colors); err != nil {
		return nil, fmt.Errorf("baseline: randomized coloring invalid: %w", err)
	}
	return &RandResult{Colors: colors, Stats: *stats, Rounds: stats.Rounds}, nil
}

// RandomSeedPrefix runs the paper's bit-by-bit prefix process with a
// *random* shared seed instead of the derandomized one, iterating
// partial-coloring rounds centrally: it isolates how much progress the
// randomized zero-round process makes compared with the guaranteed 1/8
// fraction of the derandomized version. Returns the number of
// iterations needed to color everything.
func RandomSeedPrefix(inst *graph.Instance, seed uint64) (int, error) {
	if err := inst.Validate(); err != nil {
		return 0, err
	}
	p, err := core.ComputeParams(inst, core.Options{})
	if err != nil {
		return 0, err
	}
	psi, _, err := linial.ColorGraph(adjOf(inst.G), inst.G.MaxDegree())
	if err != nil {
		return 0, err
	}
	src := prng.New(seed)
	n := inst.G.N()
	colored := make([]bool, n)
	colors := make([]uint32, n)
	lists := make([][]uint32, n)
	for v := range lists {
		lists[v] = append([]uint32(nil), inst.Lists[v]...)
	}
	for iter := 1; iter <= 64*(bits.Len(uint(n))+4); iter++ {
		// Residual instance.
		var residual []int
		for v := 0; v < n; v++ {
			if !colored[v] {
				residual = append(residual, v)
			}
		}
		if len(residual) == 0 {
			return iter - 1, nil
		}
		sub, orig := inst.G.InducedSubgraph(residual)
		subLists := make([][]uint32, sub.N())
		subPsi := make([]uint64, sub.N())
		for i, v := range orig {
			subLists[i] = lists[v]
			subPsi[i] = psi[v]
		}
		subInst := &graph.Instance{G: sub, C: inst.C, Lists: subLists}
		st, err := core.NewPrefixState(subInst)
		if err != nil {
			return 0, err
		}
		for !st.Done() {
			if err := st.StepSeeded(src, subPsi, p.Fam, p.B); err != nil {
				return 0, err
			}
		}
		cand, err := st.CandidateColors()
		if err != nil {
			return 0, err
		}
		// Keep nodes with no conflict among candidates (conservative MIS).
		for i, v := range orig {
			ok := true
			for _, w := range sub.Neighbors(i) {
				if cand[w] == cand[i] {
					ok = false
					break
				}
			}
			if ok {
				colored[v] = true
				colors[v] = cand[i]
			}
		}
		for _, v := range orig {
			if !colored[v] {
				for _, w := range inst.G.Neighbors(v) {
					if colored[w] {
						lists[v] = graph.RemoveColor(lists[v], colors[w])
					}
				}
			}
		}
		// Rebuild lists minimality: lists[v] already pruned incrementally.
	}
	return 0, fmt.Errorf("baseline: random-seed process did not converge")
}

func adjOf(g *graph.Graph) [][]int32 {
	adj := make([][]int32, g.N())
	for v := 0; v < g.N(); v++ {
		adj[v] = g.Neighbors(v)
	}
	return adj
}
