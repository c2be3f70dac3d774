package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"smallbandwidth/internal/congest"
	"smallbandwidth/internal/gf2"
)

// phaseHub centralizes one component's seed-bit loop. In the
// distributed formulation every one of the D seed bits costs one tree
// aggregation — 2(size−1) messages rippling up and down the BFS tree
// over 2·Height+6 rounds — and at the scale tiers those aggregation
// waves, not the GF(2) math, dominate the wall clock. But the
// aggregation's outcome is a pure function of state the simulator
// already holds in one address space: every node's two conditional
// expectations, folded in a fixed tree order. So the hub evaluates the
// whole seed-bit segment centrally — the last node to register runs
// the D-bit loop for the component, replicating the distributed
// execution exactly — while the engine's round/traffic accounting is
// kept bit-identical by charging the aggregations' exact message and
// word counts (Ctx.ChargeTraffic) and sleeping through the segment's
// exact round span (SpinUntil, which the engine fast-forwards in one
// jump when a whole domain sleeps).
//
// Within one seed bit every node's edge terms are independent — only
// their aggregation has an order — so the hub fans each bit out over
// work bands, contiguous slot ranges cut once per phase at equal work
// (cutBands), each band on its own split of the shared basis. Pass 1:
// every slot whose marginal an owned edge reads writes its own coin's
// marginal pair into the per-bit table marg. Pass 2: every slot
// evaluates its owned edges, reading each neighbor's marginal from the
// table by slot. The tree-order fold, the FixBit and the sheet folds
// stay sequential on the coordinator.
//
// Bit-identity with the reference path (opts.refEval, runPhaseRef: a
// fresh basis per phase, clone-and-FixBit per β branch, and every
// aggregation run as a real tree wave) rests on three invariants, each
// pinned by the differential suites:
//
//  1. Every node's (x0, x1) pair is the reference's, bit for bit: the
//     probabilities are exact dyadics, and the same ones whether
//     gathered from sheets, walked by the scalar kernel under a split
//     of the hub's basis, or walked under runPhaseRef's cloned bases;
//     a neighbor's marginal is the same dyadic read from the table as
//     computed by its owner; and every node's edge terms go through
//     edgeCombine in owned-edge order, the reference's order —
//     whichever band computed them.
//  2. The float fold replicates the converge: ConvergeSumLockstepTo
//     folds, at each tree node, the node's own vector plus each child's
//     finished accumulator in child arrival order — ascending subtree
//     height, then ascending ID. The hub folds slot accumulators in
//     exactly that order (kids sorted by (height, ID), parents after
//     children), so the root total — and hence every argmin choice —
//     is the bit-identical float.
//  3. Rounds, messages, words, and widths are charged as measured:
//     D aggregations of 2(size−1) messages × 4 words over
//     D·(2·Height+6) rounds, which is exactly what the reference's
//     waves cost (and zero messages for singleton components, whose
//     aggregations never send).
//
// Coordination is scheduling-independent. Every node registers its
// slot once, at node start. In each phase only the alive registrants
// arrive: a node colored in an earlier iteration sleeps through the
// whole iteration (sleepIteration), and its slot contributes a zero
// pair and does no band work. The arrival that reaches the component's
// alive count — the iteration-top converge's total, known to every
// node — coordinates (any alive node; the choice is unobservable),
// everyone else parks in SpinUntil, and the engine's release-channel
// chain orders the coordinator's writes before every sleeper's reads.
// No commit happens inside the segment, so checkpoint cuts — taken
// only at iteration tops — see the same committed states and the same
// staged stats as the distributed run.
type phaseHub struct {
	size    int
	p       *Params
	arrived atomic.Int64

	// Coordinator-only state below; the arrival counter orders every
	// alive slot's phase writes before the coordinator's reads (a
	// colored slot's state was last written iterations ago, before
	// barriers every node has since passed), and the segment wake-up
	// orders the coordinator's writes before the slots' reads.
	// The band goroutines of a pass touch only their own slots' acc and
	// marg entries, their own sbs and panics entries, and read the rest;
	// the go statements and wg.Wait order them against the coordinator.
	slots []hubSlot
	order []int32 // fold order: slot indexes, ascending (SubtreeHeight, slot)
	acc   [][2]float64
	marg  []gf2.ProbPair // per-bit table: slot → own-coin marginal pair
	basis gf2.Basis
	built bool
	seed  gf2.Vec128 // the finished phase's seed, read by every slot on wake

	cut    []int             // band b covers slots [cut[b], cut[b+1])
	sbs    []*gf2.SplitBasis // band b's split of basis on the bit being evaluated
	panics []any             // a band's recovered panic, re-raised by the coordinator
	wg     sync.WaitGroup
}

type hubSlot struct {
	ns   *nodeState
	subH int32
	kids []int32 // child slot indexes, ascending (SubtreeHeight, ID)
}

// newPhaseHub sizes a hub for a component of size nodes, fanning its
// seed bits out over bands ≥ 1 work bands.
func newPhaseHub(size int, p *Params, bands int) *phaseHub {
	return &phaseHub{
		size:   size,
		p:      p,
		slots:  make([]hubSlot, size),
		acc:    make([][2]float64, size),
		marg:   make([]gf2.ProbPair, size),
		cut:    make([]int, bands+1),
		sbs:    make([]*gf2.SplitBasis, bands),
		panics: make([]any, bands),
	}
}

// build assembles the fold schedule from the registered slots' BFS
// trees; runs once, on the first phase (the tree is fixed per run).
func (h *phaseHub) build() {
	for si := range h.slots {
		sl := &h.slots[si]
		t := sl.ns.tree
		sl.subH = int32(t.SubtreeHeight)
		if len(t.Children) > 0 {
			sl.kids = make([]int32, len(t.Children))
			for k, c := range t.Children {
				sl.kids[k] = int32(sl.ns.rankOf[c])
			}
			// Child accumulators arrive in round order — ascending subtree
			// height — with ascending IDs within a round. Children is
			// ID-ascending, so a stable sort by height preserves the
			// within-round order.
			kids := sl.kids
			sort.SliceStable(kids, func(a, b int) bool {
				return h.slots[kids[a]].subH < h.slots[kids[b]].subH
			})
		}
	}
	h.order = make([]int32, h.size)
	for i := range h.order {
		h.order[i] = int32(i)
	}
	ord := h.order
	sort.SliceStable(ord, func(a, b int) bool {
		return h.slots[ord[a]].subH < h.slots[ord[b]].subH
	})
	if last := ord[h.size-1]; last != 0 {
		panic(fmt.Sprintf("core: phase hub fold order ends at slot %d, not the root", last))
	}
	h.built = true
}

// runSeedBits is the central replica of the distributed seed-bit loop:
// per bit, the bands' two passes evaluate every slot, the tree-ordered
// fold replaces the aggregation wave, and every slot's sheets and the
// shared basis advance in lockstep with the chosen bit.
func (h *phaseHub) runSeedBits() gf2.Vec128 {
	basis := &h.basis
	basis.Reset()
	h.cutBands()
	var seed gf2.Vec128
	for j := 0; j < h.p.D; j++ {
		// The basis holds only the chosen bits 0..j−1, so bit j is free.
		for b := range h.sbs {
			sb, ok := basis.Split(j)
			if !ok {
				panic("core: seed bit not free to split")
			}
			h.sbs[b] = sb
		}
		h.forBands(passMarginals)
		h.forBands(passEdges)
		for _, sb := range h.sbs {
			sb.Release()
		}
		for _, si := range h.order {
			a := &h.acc[si]
			for _, ci := range h.slots[si].kids {
				c := &h.acc[ci]
				a[0] += c[0]
				a[1] += c[1]
			}
		}
		totals := h.acc[0] // the root is rank 0: the component's smallest ID
		rj := totals[1] < totals[0]
		if !basis.FixBit(j, rj) {
			panic("core: chosen seed bit inconsistent")
		}
		for si := range h.slots {
			if ns := h.slots[si].ns; ns.alive {
				ns.foldSheets(j, rj)
			}
		}
		seed = seed.WithBit(j, rj)
	}
	return seed
}

// cutBands recuts the slots into len(sbs) contiguous bands of about
// equal work for this phase. A slot's work is its owned edges plus its
// own marginal when a neighbor reads it. Edges belong to their smaller
// endpoint, so low slots carry most of it: equal slot counts would hand
// the first band about three quarters of a random regular graph's work.
// The cut decides only which goroutine evaluates a slot, never a value.
func (h *phaseHub) cutBands() {
	nb := len(h.sbs)
	total := 0
	for si := range h.slots {
		total += h.slots[si].ns.bandWork()
	}
	b, done := 1, 0
	for si := range h.slots {
		for b < nb && done*nb >= b*total {
			h.cut[b] = si
			b++
		}
		done += h.slots[si].ns.bandWork()
	}
	for ; b <= nb; b++ {
		h.cut[b] = h.size
	}
}

// bandWork is this node's share of a seed bit's hub work this phase. A
// colored node's is zero: its ownedIdx and margRead are left over from
// its last live phase.
func (ns *nodeState) bandWork() int {
	if !ns.alive {
		return 0
	}
	if ns.margRead {
		return len(ns.ownedIdx) + 1
	}
	return len(ns.ownedIdx)
}

// The two per-bit passes of a band.
const (
	passMarginals = iota // each read slot's own marginal into marg
	passEdges            // each slot's owned-edge sums into acc
)

// forBands runs one pass over every band — band 0 on the coordinator,
// the others on goroutines of their own — and returns when all have
// finished. A band's panic is re-raised here, on the node goroutine the
// engine recovers from, so a fault fails the run instead of the process
// and no band outlives the pass.
func (h *phaseHub) forBands(pass int) {
	h.wg.Add(len(h.sbs))
	for b := 1; b < len(h.sbs); b++ {
		go h.band(pass, b)
	}
	h.band(pass, 0)
	h.wg.Wait()
	for b, p := range h.panics {
		if p != nil {
			h.panics[b] = nil
			panic(p)
		}
	}
}

// band runs one pass over band b's slots, recording a panic for
// forBands.
func (h *phaseHub) band(pass, b int) {
	defer h.wg.Done()
	defer func() {
		if p := recover(); p != nil {
			h.panics[b] = p
		}
	}()
	sb := h.sbs[b]
	for si := h.cut[b]; si < h.cut[b+1]; si++ {
		ns := h.slots[si].ns
		if pass == passMarginals {
			if ns.alive && ns.margRead {
				h.marg[si] = ns.ownMarginal(sb)
			}
			continue
		}
		var x0, x1 float64
		if ns.alive {
			x0, x1 = ns.evalPhaseBit(sb, h.marg)
		}
		h.acc[si] = [2]float64{x0, x1}
	}
}

// runPhaseBulk is an alive node's entry to the hub for one phase:
// arrive, let the last alive arrival run the segment centrally, and
// sleep through the segment's exact round span. Returns the
// component's chosen seed.
func (ns *nodeState) runPhaseBulk() gf2.Vec128 {
	h := ns.hub
	start := ns.ctx.Round()
	if h.arrived.Add(1) == ns.compAlive {
		if !h.built {
			h.build()
		}
		h.seed = h.runSeedBits()
		// Charge exactly what the D aggregation waves would have carried:
		// each wave sends one 4-word chunk up and one down per tree edge.
		// Singleton components send nothing, there as here.
		if h.size > 1 {
			edges := int64(h.size - 1)
			d := int64(h.p.D)
			ns.ctx.ChargeTraffic(d*2*edges, d*8*edges, 4)
		}
		h.arrived.Store(0)
	}
	// The segment's exact span: D aggregations (every node computes the
	// same bound from its own tree copy). The whole domain sleeps, so the
	// engine advances it in one jump.
	congest.SpinUntil(ns.ctx, start+ns.seedBitsSpan())
	ns.op += uint64(ns.p.D)
	return h.seed
}
