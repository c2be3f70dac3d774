package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"smallbandwidth/internal/congest"
	"smallbandwidth/internal/gf2"
)

// phaseHub centralizes one component's tree aggregations: the seed-bit
// loop, and the alive count at the top of every iteration. In the
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
// When D ≤ 64 the hub keeps one lane table for the component: every
// slot's B coin forms, stored once as lanes of bit-sliced residual
// sheets (gf2.FormSheet), per = ⌊64/B⌋ slots to a sheet in slot order.
// A residual depends only on its form and the seed bits fixed so far,
// not on which node reads it, so one copy serves a slot's own walks and
// every owner that reads it as a neighbor. build lays the table out
// once per run into a sealed base copy; each phase starts from a fresh
// copy of it and folds every chosen bit in. When D > 64 no sheet holds
// the forms and the hub walks each owned edge with the scalar kernel,
// which computes the neighbor's marginal itself.
//
// Within one seed bit every node's edge terms are independent — only
// their aggregation has an order — so the hub fans each bit out over
// work bands, contiguous slot ranges cut once per phase at equal work
// (cutBands), each band on its own split of the shared basis. The cuts
// fall on sheet boundaries, so each sheet belongs to one band. Pass 1,
// with a lane table only: every band folds the previously chosen bit
// into its sheets, then every slot whose marginal an owned edge reads
// writes its own coin's marginal pair into the per-bit table marg.
// Pass 2: every slot evaluates its owned edges, reading each neighbor's
// lanes, coin and marginal by slot, from whichever band's sheet holds
// them: no pass 2 writes a sheet. Only the tree-order fold and the
// FixBit stay sequential on the coordinator.
//
// Seed bits that no coin form contains are not evaluated at all. For
// such a bit both branches of every slot's pair are the same floats, so
// the tree fold would pick 0: the hub fixes it to 0 with no split, no
// pass and no sheet fold (no lane holds it). The model still runs the
// bit's aggregation, so the charged traffic, the segment's span and op
// count every bit.
//
// Bit-identity with the reference path (opts.refEval, runPhaseRef: a
// fresh basis per phase, clone-and-FixBit per β branch, and every
// aggregation run as a real tree wave) rests on three invariants, each
// pinned by the differential suites:
//
//  1. Every node's (x0, x1) pair is the reference's, bit for bit: the
//     probabilities are exact dyadics, and the same ones whether
//     gathered from the lane table, walked by the scalar kernel under a
//     split of the hub's basis, or walked under runPhaseRef's cloned
//     bases; a neighbor's coin, bound by the neighbor from the forms of
//     its ψ and the (k1, |L|) it sent, is the coin the reference builds
//     from that payload; a neighbor's marginal is the same dyadic read
//     from the table as computed by its owner; and every node's edge
//     terms go through edgeCombine in owned-edge order, the reference's
//     order — whichever band computed them.
//  2. The float fold replicates the converge: ConvergeSumLockstepTo
//     folds, at each tree node, the node's own vector plus each child's
//     finished accumulator in child arrival order — ascending subtree
//     height, then ascending ID. The hub folds slot accumulators in
//     exactly that order (kids sorted by (height, ID), parents after
//     children, all read off the run's BFS layout), so the root total
//     — and hence every argmin choice — is the bit-identical float.
//  3. Rounds, messages, words, and widths are charged as measured:
//     D aggregations of 2(size−1) messages × 4 words over
//     D·(2·Height+6) rounds, which is exactly what the reference's
//     waves cost (and zero messages for singleton components, whose
//     aggregations never send).
//
// The alive count is the simplest aggregation: every node arrives at
// the iteration top, after its commit, and the component's last arrival
// counts the alive slots and charges one aggregation of 2(size−1)
// messages × 4 words. Every node sleeps through the aggregation's span
// (2·Height+6 rounds) and reads the count, as every node read the
// converge's total. The charge lands after the commit round's cut was
// staged, so that cut's Stats leave it out, as they left out the wave.
//
// Coordination is scheduling-independent. Every node registers its
// slot once, at node start. In each phase only the alive registrants
// arrive: a node colored in an earlier iteration sleeps through the
// whole iteration (sleepIteration), and its slot contributes a zero
// pair and does no band work. The arrival that reaches the component's
// alive count coordinates (any alive node; the choice is
// unobservable), and everyone else parks in SpinUntil. A coordinator,
// of a phase or of an alive count, waits only on its own band
// goroutines, never on another node, as the engine requires of a node
// program outside its round calls. The sleepers run again only
// in a later round, after the coordinator has parked too, so the
// engine's coroutine switches and its round loop order the
// coordinator's writes before every sleeper's reads.
// No commit happens inside the segment, so checkpoint cuts — taken
// only at iteration tops — see the same committed states and the same
// staged stats as the distributed run.
type phaseHub struct {
	size    int
	p       *Params
	arrived atomic.Int64
	alive   int64 // the last iteration top's alive count, read by every node on wake

	// Coordinator-only state below; the arrival counter orders every
	// alive slot's phase writes before the coordinator's reads (a
	// colored slot's state was last written iterations ago, before
	// barriers every node has since passed), and the segment wake-up
	// orders the coordinator's writes before the slots' reads.
	// The band goroutines of a pass write only their own slots' acc and
	// marg entries, their own sheets (pass 1), and their own sbs and
	// panics entries, and read the rest; the go statements and wg.Wait
	// order them against the coordinator and each other.
	slots []hubSlot
	order []int32 // fold order: slot indexes, ascending (SubtreeHeight, slot)
	acc   [][2]float64
	marg  []gf2.ProbPair // per-bit table: slot → own-coin marginal pair (lane table only)
	basis gf2.Basis
	built bool
	seed  gf2.Vec128 // the finished phase's seed, read by every slot on wake

	// The lane table, when D ≤ 64 (nil otherwise): slot s's forms are
	// lanes (s mod per)·B .. of sheet s/per, sealed in base by build;
	// table is the working copy, reset from base at each phase's start.
	per   int
	base  []gf2.FormSheet
	table []gf2.FormSheet

	// The last evaluated seed bit and its chosen value, which each band
	// folds into its sheets at the start of the next evaluated bit's
	// marginal pass; foldBit < 0 when none is pending. The fold after a
	// phase's last bit is never made: the next phase resets the table.
	foldBit int
	foldVal bool

	cut    []int             // band b covers slots [cut[b], cut[b+1])
	sbs    []*gf2.SplitBasis // band b's split of basis on the bit being evaluated
	panics []any             // a band's recovered panic, re-raised by the coordinator
	wg     sync.WaitGroup
}

type hubSlot struct {
	ns   *nodeState
	kids []int32 // child slot indexes, in fold order (layFold)
}

// newPhaseHub sizes a hub for a component of size nodes, fanning its
// seed bits out over bands ≥ 1 work bands. Seeds of at most 64 bits
// keep every form in one word and B ≤ 32, so they get a lane table.
func newPhaseHub(size int, p *Params, bands int) *phaseHub {
	h := &phaseHub{
		size:    size,
		p:       p,
		slots:   make([]hubSlot, size),
		acc:     make([][2]float64, size),
		marg:    make([]gf2.ProbPair, size),
		foldBit: -1,
		cut:     make([]int, bands+1),
		sbs:     make([]*gf2.SplitBasis, bands),
		panics:  make([]any, bands),
	}
	if p != nil && p.D <= 64 {
		h.per = 64 / p.B
		sheets := (size + h.per - 1) / h.per
		h.base = make([]gf2.FormSheet, sheets)
		h.table = make([]gf2.FormSheet, sheets)
	}
	return h
}

// layFold assembles the fold schedule from the component's BFS tree in
// the run's layout: comp lists the component's nodes, slot order, and
// rankOf maps a node to its slot.
//
// The order is the one the pinned results were made with, which is not
// always the converge's. Slots take their subtree heights in slot
// order, and each slot's children are sorted by the heights known at
// that point, so a child whose slot comes later sorts as a leaf. When
// that child is not a leaf, the hub folds it earlier than its chunk
// arrives, and the root total can round differently from refEval's.
func (h *phaseHub) layFold(comp []int, lay *congest.BFSLayout, rankOf []uint64) {
	subH := make([]int32, h.size) // by slot, filled in slot order
	for si, v := range comp {
		sl := &h.slots[si]
		subH[si] = lay.SubtreeHeight[v]
		if children := lay.Children(v); len(children) > 0 {
			sl.kids = make([]int32, len(children))
			for k, c := range children {
				sl.kids[k] = int32(rankOf[c])
			}
			// Child accumulators arrive in round order — ascending subtree
			// height — with ascending IDs within a round. Children is
			// ID-ascending, so a stable sort by height preserves the
			// within-round order, wherever the heights are known yet.
			kids := sl.kids
			sort.SliceStable(kids, func(a, b int) bool {
				return subH[kids[a]] < subH[kids[b]]
			})
		}
	}
	h.order = make([]int32, h.size)
	for i := range h.order {
		h.order[i] = int32(i)
	}
	ord := h.order
	sort.SliceStable(ord, func(a, b int) bool {
		return subH[ord[a]] < subH[ord[b]]
	})
	if last := ord[h.size-1]; last != 0 {
		panic(fmt.Sprintf("core: phase hub fold order ends at slot %d, not the root", last))
	}
}

// build lays every slot's forms out in the lane table; runs once, on
// the first phase, when every node's ψ and so its forms are final.
func (h *phaseHub) build() {
	if h.table != nil {
		for si := range h.slots {
			sh := &h.base[si/h.per]
			if lane, ok := sh.AddForms(h.slots[si].ns.myForms); !ok || lane != si%h.per*h.p.B {
				panic(fmt.Sprintf("core: lane table refused slot %d's forms", si))
			}
		}
		for k := range h.base {
			h.base[k].Seal()
		}
	}
	h.built = true
}

// runSeedBits is the central replica of the distributed seed-bit loop:
// per evaluated bit, the bands' two passes evaluate every slot, the
// tree-ordered fold replaces the aggregation wave, and the shared basis
// takes the chosen bit, which the bands fold into the lane table next.
// A bit in no coin form is fixed to 0 directly.
func (h *phaseHub) runSeedBits() gf2.Vec128 {
	basis := &h.basis
	basis.Reset()
	copy(h.table, h.base)
	h.cutBands()
	h.foldBit = -1
	live := h.p.Fam.OutputSupport(h.p.B)
	var seed gf2.Vec128
	for j := 0; j < h.p.D; j++ {
		if !live.Bit(j) {
			if !basis.FixBit(j, false) {
				panic("core: seed bit in no form not free to fix")
			}
			continue
		}
		// The basis holds only the bits 0..j−1, so bit j is free.
		for b := range h.sbs {
			sb, ok := basis.Split(j)
			if !ok {
				panic("core: seed bit not free to split")
			}
			h.sbs[b] = sb
		}
		if h.table != nil {
			h.forBands(passMarginals)
		}
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
		h.foldBit, h.foldVal = j, rj
		seed = seed.WithBit(j, rj)
	}
	return seed
}

// cutBands recuts the slots into len(sbs) contiguous bands of about
// equal work for this phase. A slot's work is its owned edges plus its
// own marginal when a neighbor reads it. Edges belong to their smaller
// endpoint, so low slots carry most of it: equal slot counts would hand
// the first band about three quarters of a random regular graph's work.
// With a lane table, each interior cut is rounded down to a sheet
// boundary, so each sheet is folded by exactly one band. The cut decides
// only which goroutine evaluates a slot, never a value.
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
	for b := 1; b < nb && h.per > 0; b++ {
		h.cut[b] -= h.cut[b] % h.per
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
	passMarginals = iota // the band's pending sheet fold, then each read slot's own marginal into marg
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
	lo, hi := h.cut[b], h.cut[b+1]
	if pass == passMarginals && h.foldBit >= 0 && h.table != nil {
		for k := lo / h.per; k*h.per < hi; k++ {
			h.table[k].Fix(h.foldBit, h.foldVal)
		}
	}
	for si := lo; si < hi; si++ {
		ns := h.slots[si].ns
		if pass == passMarginals {
			if ns.alive && ns.margRead {
				h.marg[si] = h.ownMarginal(sb, si)
			}
			continue
		}
		var x0, x1 float64
		if ns.alive {
			x0, x1 = h.evalPhaseBit(sb, si)
		}
		h.acc[si] = [2]float64{x0, x1}
	}
}

// lanes locates slot si's coin in the lane table: its sheet, and its
// lanes with this phase's threshold.
func (h *phaseHub) lanes(si int) (*gf2.FormSheet, gf2.BlockCoin) {
	c := h.slots[si].ns.phMyCoin
	return &h.table[si/h.per], gf2.BlockCoin{Lane: si % h.per * c.Bits(), B: c.Bits(), T: c.Threshold()}
}

// evalPhaseBit sums slot si's owned-edge contributions to the two
// conditional expectations of the seed bit sb splits — E[X | bit=0] and
// E[X | bit=1] — accumulated in owned-edge order. Each neighbor's coin
// and marginal pair (ownMarginal, filled by pass 1) are read by its
// slot.
//
// Two evaluation tiers, bit-identical to each other and to runPhaseRef
// (the differential and fuzz suites pin both): with a lane table, the
// slot's coin walked once and the walk replayed per edge against the
// neighbor's lanes and marginal; without one (D > 64), the scalar split
// kernel per edge.
func (h *phaseHub) evalPhaseBit(sb *gf2.SplitBasis, si int) (x0, x1 float64) {
	ns := h.slots[si].ns
	k1, k0 := ns.phK1, ns.phK0
	if h.table == nil {
		for ei, i := range ns.ownedIdx {
			cv := h.slots[ns.ownedSlot[ei]].ns.phMyCoin
			k1v, k0v := int(ns.nbrK1[i]), int(ns.nbrLen[i])-int(ns.nbrK1[i])
			e0, e1 := EdgeExpectationSplit(sb, ns.phMyCoin, cv, k1, k0, k1v, k0v)
			x0 += e0
			x1 += e1
		}
		return x0, x1
	}
	if len(ns.ownedIdx) == 0 {
		return 0, 0
	}
	// Joint probabilities and the Lemma 2.2 terms, in owned order — the
	// same accumulation order as the scalar tier.
	ow := sb.WalkOwner(h.lanes(si))
	pu := ow.Marginal()
	for ei, i := range ns.ownedIdx {
		mv := ns.ownedSlot[ei]
		sheet, cv := h.lanes(int(mv))
		pv := h.marg[mv]
		p11 := ow.Joint(sheet, cv, pv)
		k1v, k0v := int(ns.nbrK1[i]), int(ns.nbrLen[i])-int(ns.nbrK1[i])
		x0 += edgeCombine(pu.P0, pv.P0, p11.P0, k1, k0, k1v, k0v)
		x1 += edgeCombine(pu.P1, pv.P1, p11.P1, k1, k0, k1v, k0v)
	}
	return x0, x1
}

// ownMarginal returns slot si's own coin marginal under both branches
// of sb's split bit, read off its lanes: the slot's entry in the
// per-bit table.
func (h *phaseHub) ownMarginal(sb *gf2.SplitBasis, si int) gf2.ProbPair {
	sheet, cu := h.lanes(si)
	req := [1]gf2.BlockCoin{cu}
	var out [1]gf2.ProbPair
	sb.ProbOnePairBlock(sheet, req[:], out[:])
	return out[0]
}

// runPhaseBulk is an alive node's entry to the hub for one phase:
// arrive, let the last alive arrival run the segment centrally, and
// sleep through the segment's exact round span. Returns the
// component's chosen seed.
func (ns *nodeState) runPhaseBulk() gf2.Vec128 {
	h := ns.hub
	start := ns.ctx.Round()
	if h.arrived.Add(1) == h.alive {
		h.coordinate(ns.ctx)
	}
	// The segment's exact span: D aggregations (every node computes the
	// same bound from its own tree copy). The whole domain sleeps, so the
	// engine advances it in one jump.
	congest.SpinUntil(ns.ctx, start+ns.seedBitsSpan())
	ns.op += uint64(ns.p.D)
	return h.seed
}

// coordinate is the last alive arrival's run of the phase's seed-bit
// segment, on its own node's stack: the hub's passes run deep, so this
// node's stack may grow, once per component per phase, while every
// other node's stays in its starting size.
//
//go:noinline
func (h *phaseHub) coordinate(ctx *congest.Ctx) {
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
		ctx.ChargeTraffic(d*2*edges, d*8*edges, 4)
	}
	h.arrived.Store(0)
}

// countAlive is a node's entry to the hub at the top of an iteration:
// arrive, let the component's last arrival tally the alive slots, and
// sleep through the aggregation's exact span. It returns the count, and
// advances the node's aggregation counter as the aggregation would.
func (h *phaseHub) countAlive(ns *nodeState) int64 {
	start := ns.ctx.Round()
	if h.arrived.Add(1) == int64(h.size) {
		h.tallyAlive(ns.ctx)
	}
	congest.SpinUntil(ns.ctx, start+ns.convergeSpan())
	ns.op++
	return h.alive
}

// tallyAlive is the last arrival's count of the component's alive
// slots. It charges what the aggregation wave would have carried: one
// 4-word chunk up and one down per tree edge, nothing on a singleton.
//
//go:noinline
func (h *phaseHub) tallyAlive(ctx *congest.Ctx) {
	alive := int64(0)
	for si := range h.slots {
		if h.slots[si].ns.alive {
			alive++
		}
	}
	h.alive = alive
	if h.size > 1 {
		edges := int64(h.size - 1)
		ctx.ChargeTraffic(2*edges, 8*edges, 4)
	}
	h.arrived.Store(0)
}
