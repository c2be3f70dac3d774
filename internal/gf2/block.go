package gf2

import "math/bits"

// FormSheet lays the residuals of up to 64 single-word forms out as
// bit-sliced planes, one lane per form, so the conditional-expectation
// loop can maintain every residual of a node's owned conflict edges
// incrementally instead of re-deriving them per seed bit:
//
//   - lane[l] is lane l's residual mask (the form's mask minus every
//     seed bit folded so far);
//   - rhs is the branch-0 right-hand-side plane: bit l is lane l's
//     residual constant, Const_l ⊕ ⟨folded bits of mask_l, their chosen
//     values⟩ — exactly the bit-0 byte loReduce computes;
//   - bitp[b] is the transposed residual plane of seed bit b: bit l is
//     set iff lane l's residual mask still contains b. Sealing a sheet
//     builds the planes with one 64×64 bit-matrix transpose.
//
// Fixing seed bit j to value r then folds into every lane at once:
// rhs ^= bitp[j] when r (one masked-XOR pass over the whole sheet),
// the affected lanes drop bit j, and bitp[j] clears — per-bit work
// O(planes), not O(edges·forms·words). The current split bit j is the
// one bit handled at read time: a lane's branch-1 right-hand side is
// its branch-0 bit XOR its bitp[j] bit, which is how one word op
// carries both β branches of the whole block.
//
// A sheet represents residuals against the *fixed bits* of a basis,
// which is all a Split result holds, so a sheet folded in step with the
// split basis gathers exactly the residuals loReduce derives. Sheets
// hold whatever form groups the caller lays out — the phase loop packs
// a node's own coin plus the coins of its owned conflict edges'
// neighbors.
type FormSheet struct {
	lane [64]uint64
	bitp [64]uint64
	rhs  uint64
	n    int
}

// Reset empties the sheet for reuse.
func (s *FormSheet) Reset() {
	*s = FormSheet{}
}

// Free returns the number of unused lanes.
func (s *FormSheet) Free() int { return 64 - s.n }

// AddForms appends one form group (a coin's forms) as consecutive
// lanes and returns the first lane. It fails — leaving the sheet
// unchanged — if the group does not fit or any mask has high bits
// (sheets are single-word, like the lo walks they feed).
func (s *FormSheet) AddForms(fs []Form) (lane int, ok bool) {
	if len(fs) > 64-s.n {
		return 0, false
	}
	for i := range fs {
		if fs[i].Mask.Hi != 0 {
			return 0, false
		}
	}
	lane = s.n
	for i := range fs {
		l := lane + i
		s.lane[l] = fs[i].Mask.Lo
		if fs[i].Const {
			s.rhs |= uint64(1) << l
		}
	}
	s.n += len(fs)
	return lane, true
}

// Seal builds the transposed residual planes from the lanes. Call it
// once after the last AddForms and before the first Fix or gather.
func (s *FormSheet) Seal() {
	s.bitp = s.lane
	transpose64(&s.bitp)
}

// Fix folds the choice "seed bit j = val" into every residual of the
// sheet: one masked-XOR pass over the right-hand-side plane, and the
// lanes still containing bit j drop it. After the fold the sheet's
// residuals are exactly what loReduce would derive against a basis
// with the same bits fixed to the same values.
//
//sbw:allocfree phase-step kernel: per-seed-bit incremental plane fold
func (s *FormSheet) Fix(j int, val bool) {
	if j >= 64 {
		return // single-word sheets never contain bits ≥ 64
	}
	p := s.bitp[j]
	if p == 0 {
		return
	}
	if val {
		s.rhs ^= p
	}
	bit := uint64(1) << j
	for rest := p; rest != 0; rest &= rest - 1 {
		s.lane[bits.TrailingZeros64(rest)] &^= bit
	}
	s.bitp[j] = 0
}

// transpose64 transposes the 64×64 bit matrix a in place (row r bit c
// becomes row c bit r) by recursive block swaps — the classic
// power-of-two transpose, ⌈log 64⌉ passes of masked shifts.
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000FFFFFFFF)
	for j := 32; j != 0; j, m = j>>1, m^(m<<uint(j>>1)) {
		for k := 0; k < 64; k = (k + j + 1) &^ j {
			t := (a[k]>>uint(j) ^ a[k+j]) & m
			a[k+j] ^= t
			a[k] ^= t << uint(j)
		}
	}
}

// BlockCoin locates one coin's forms on a FormSheet.
type BlockCoin struct {
	Lane int    // first lane of the coin's form group
	B    int    // number of forms (Coin.Bits)
	T    uint64 // threshold (Coin.Threshold)
}

// ProbPair is Pr[C = 1] under branch 0 and branch 1 of a split bit.
type ProbPair struct {
	P0, P1 float64
}

// gatherResid reads b residuals starting at lane from the sheet, under
// this SplitBasis's split bit: the mask is the lane minus the split
// bit, branch 0's right-hand side is the lane's rhs-plane bit, and
// branch 1 differs by the lane's split-plane bit — the same bytes
// loReduce packs. The sheet must have folded exactly this basis's
// fixed bits.
//
//sbw:allocfree phase-step kernel: residual gather feeding the block walks
func (sb *SplitBasis) gatherResid(sheet *FormSheet, lane, b int, out []loResid) {
	split := uint(bits.TrailingZeros64(sb.split.Lo))
	for i := 0; i < b; i++ {
		l := uint(lane + i)
		w := sheet.lane[l]
		m := w &^ (uint64(1) << split)
		r0 := uint8(sheet.rhs >> l & 1)
		rhs := r0 | (r0^uint8(w>>split&1))<<1
		out[i] = loResid{mask: m, rhs: rhs}
	}
}

// ProbOnePairBlock is ProbOnePair over a block of coins laid out on a
// sheet: out[k] receives both branch marginals of reqs[k]. The phase
// hub uses it for each read node's own-coin entry in its per-bit
// marginal table. Requires a low-word split (split bit < 64) and a
// sheet folded in step with this basis; each result is bit-identical
// to ProbOnePair on the coin.
//
//sbw:allocfree phase-step kernel: a sheeted node's own-coin marginal, once per seed bit
func (sb *SplitBasis) ProbOnePairBlock(sheet *FormSheet, reqs []BlockCoin, out []ProbPair) {
	for k := range reqs {
		rq := reqs[k]
		if rq.T == 0 {
			out[k] = ProbPair{}
			continue
		}
		if rq.T >= uint64(1)<<rq.B {
			out[k] = ProbPair{P0: 1, P1: 1}
			continue
		}
		res := sb.resLo[:rq.B]
		sb.gatherResid(sheet, rq.Lane, rq.B, res)
		p0, p1 := loInnerWalk(&sb.innerLo, res, rq.T, 0, 0, false, 3)
		out[k] = ProbPair{P0: p0, P1: p1}
	}
}

// OwnerWalk is the owner's half of a node's joint edge walks under one
// split: the steps of the owner coin's threshold walk, recorded once per
// node per seed bit by SplitBasis.WalkOwner and replayed for each owned
// edge by Joint. Nothing the owner does depends on the neighbor — its
// residual gather, its reductions against its own prefix rows, its
// branch liveness, condProb, and its own marginal — so only the
// neighbor's residual updates and inner walks run per edge. An
// OwnerWalk lives in its split's scratch and stays valid until the next
// WalkOwner on that split or its Release.
type OwnerWalk struct {
	sb     *SplitBasis
	p1     ProbPair // the owner coin's marginal
	never  bool     // owner threshold 0: the coin never shows 1
	always bool     // owner threshold ≥ 2^b: the coin always shows 1
	ops    [128]walkOp
	n      int
}

// walkOp is one recorded step of an owner walk. With alive ≠ 0 it is a
// term: the neighbor's inner walk runs for the branches in alive,
// seeded with the atom (mask, rhs) when mask ≠ 0, and its result is
// added with weight w (condProb, or condProb·0.5 under an atom). With
// alive = 0 it is a prefix row, which the neighbor's residuals
// eliminate before any later term.
type walkOp struct {
	loRow
	w     float64
	alive uint8
}

// WalkOwner records the owner coin cu's joint-walk steps, reading its
// residuals from a sheet folded in step with this basis (the owner's
// form group heads every sheet of a node, and all of them hold the same
// residuals). Preconditions as for ProbOnePairBlock. The walk ends at
// the threshold's lowest one bit, the last step that adds a term.
//
//sbw:allocfree phase-step kernel: one owner walk per sheeted node per seed bit
func (sb *SplitBasis) WalkOwner(sheet *FormSheet, cu BlockCoin) *OwnerWalk {
	ow := &sb.owner
	ow.sb, ow.n, ow.p1 = sb, 0, ProbPair{}
	ow.never = cu.T == 0
	ow.always = cu.T >= uint64(1)<<cu.B
	if ow.never || ow.always {
		if ow.always {
			ow.p1 = ProbPair{P0: 1, P1: 1}
		}
		return ow
	}
	res := sb.resLoU[:cu.B]
	sb.gatherResid(sheet, cu.Lane, cu.B, res)
	rows := &sb.fuLo
	rows.n = 0
	alive := uint8(3)
	condProb := 1.0
	steps := cu.B - bits.TrailingZeros64(cu.T)
	for idx := 0; idx < steps; idx++ {
		m, rhs := rows.reduce(res[idx].mask, res[idx].rhs)
		tj := cu.T&(1<<(cu.B-1-idx)) != 0
		if tj {
			if m == 0 {
				// The prefix fixes the form: each live branch that
				// fixes it at 0 takes the whole condProb.
				if e := alive &^ rhs; e != 0 {
					ow.term(e, condProb, 0, 0)
				}
			} else {
				ow.term(alive, condProb*0.5, m, rhs)
			}
		}
		if idx == steps-1 {
			break // the last term: no later step reads the prefix
		}
		// Continue branch: prefix bit equals tj.
		rr := rhs
		if tj {
			rr ^= 3
		}
		if m == 0 {
			alive &^= rr
			if alive == 0 {
				break
			}
		} else {
			condProb *= 0.5
			ow.ops[ow.n] = walkOp{loRow: rows.add(m, rr)}
			ow.n++
		}
	}
	return ow
}

// term records a term step and adds its weight to the owner's marginal
// under each branch it runs for.
func (ow *OwnerWalk) term(alive uint8, w float64, m uint64, rhs uint8) {
	if alive&1 != 0 {
		ow.p1.P0 += w
	}
	if alive&2 != 0 {
		ow.p1.P1 += w
	}
	ow.ops[ow.n] = walkOp{loRow: loRow{mask: m, rhs: rhs}, w: w, alive: alive}
	ow.n++
}

// Marginal returns Pr[C1 = 1] under both branches, bit-identical to
// ProbOnePairBlock on the owner coin.
func (ow *OwnerWalk) Marginal() ProbPair { return ow.p1 }

// Joint returns Pr[C1 = 1 ∧ C2 = 1] under both branches for the owned
// edge to the neighbor coin cv, read from sheet; pv is the neighbor's
// marginal pair (the hub's per-bit table, filled by ProbOnePairBlock).
// The recorded steps are replayed in order: a row is eliminated from
// every neighbor residual in one branch-free pass, and a term runs the
// neighbor's inner walk and adds its weighted result. The terms and
// their order are those of EdgePair's two-word joint walk, so both
// results are bit-identical to its p110 and p111.
//
//sbw:allocfree phase-step kernel: one replay per owned edge per seed bit
func (ow *OwnerWalk) Joint(sheet *FormSheet, cv BlockCoin, pv ProbPair) (p11 ProbPair) {
	switch {
	case ow.never:
		return ProbPair{}
	case ow.always:
		return pv // C1 always 1: the joint is C2's marginal
	case cv.T == 0:
		return ProbPair{}
	case cv.T >= uint64(1)<<cv.B:
		// C2 always 1: every inner walk returns 1 for each branch it
		// runs, so the joint sums the marginal's terms in its order.
		return ow.p1
	}
	sb := ow.sb
	res := sb.resLo[:cv.B]
	sb.gatherResid(sheet, cv.Lane, cv.B, res)
	for k := range ow.ops[:ow.n] {
		op := &ow.ops[k]
		if op.alive == 0 {
			for i := range res {
				r := &res[i]
				sel := -(r.mask >> op.piv & 1)
				r.mask ^= op.mask & sel
				r.rhs ^= op.rhs & uint8(sel)
			}
			continue
		}
		q0, q1 := loInnerWalk(&sb.innerLo, res, cv.T, op.mask, op.rhs, op.mask != 0, op.alive)
		if op.alive&1 != 0 {
			p11.P0 += op.w * q0
		}
		if op.alive&2 != 0 {
			p11.P1 += op.w * q1
		}
	}
	return p11
}
