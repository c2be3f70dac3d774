package gf2

import (
	"math/bits"
	"sync"
)

// SplitBasis evaluates probability queries under *both* values of one
// free seed bit at once — the inner question of the method of
// conditional expectations, which needs E[X | S, bit=0] and
// E[X | S, bit=1] for every candidate bit.
//
// The observation making one pass suffice: the two conditioned bases
// differ only in the *value* of the split bit, never in which bits are
// fixed, so the mask side of every Gaussian reduction — the eliminations
// performed, the Independent/zero-residual classification, and therefore
// every 2^−rank conditional factor — is identical for the two branches.
// Only the affine right-hand sides diverge, by the parity of the split
// bit's occurrences in the reduction. SplitBasis therefore stores one
// shared mask structure and carries an rhs *pair* per constraint,
// evaluating both branches with the mask work of one.
//
// Each branch's classifications, accumulated terms, and term order are
// exactly those of evaluating the branch alone on a Basis with the bit
// fixed, so all results are bit-identical to the two-pass evaluation
// (which the differential tests pin).
type SplitBasis struct {
	fixedMask Vec128 // fixed bits of the source basis plus the split bit
	fixedVals Vec128 // branch-0 values; branch 1 differs exactly at split
	split     Vec128 // unit vector at the split bit
	// rows is empty on every Split result (Split takes fixed bits only);
	// only the pooled clone a ProbLess walk consumes adds rows.
	rows []splitRow
	// hiRows: some row mask has bits ≥ 64 (conservative; false enables
	// the single-word reduction path for low-word forms).
	hiRows bool

	// EdgePair walk scratch, pooled with the basis so the hot loop never
	// zero-initializes stack arrays (b ≤ m ≤ 63 bounds every index).
	res    [64]residPair
	fuRows [64]splitRow
	inner  [64]splitRow

	// Single-word walk scratch for the block kernels and ProbOnePair:
	// resLoU and fuLo hold the owner coin's residuals and prefix rows
	// while WalkOwner records its steps into owner, and resLo holds the
	// residuals an inner walk reads (a neighbor's, updated by Joint's
	// row replay).
	resLo   [64]loResid
	resLoU  [64]loResid
	fuLo    loRows
	innerLo loRows
	owner   OwnerWalk
}

// loRow / loResid are the compact single-word forms of splitRow /
// residPair used when every mask fits the low word: the two branch
// right-hand sides pack into one byte (bit 0 = branch 0, bit 1 =
// branch 1), so a row elimination is two XORs. piv is the index of
// the row mask's lowest set bit.
type loRow struct {
	mask uint64
	rhs  uint8
	piv  uint8
}

type loResid struct {
	mask uint64
	rhs  uint8
}

// loRows is an echelon system over single-word masks, kept in
// insertion order. Every row is added fully reduced against the rows
// before it, so row k holds no pivot of an earlier row.
type loRows struct {
	rows [64]loRow
	n    int
}

// reduce eliminates every stored row from (m, rhs) in one branch-free
// pass in insertion order. Row k carries no earlier pivot, so
// eliminating it never brings one back: after the pass m holds no
// pivot of any row, which makes it the canonical residual of the span.
// The rows are independent, so the set of rows eliminated, and with it
// the right-hand side, is unique too.
func (st *loRows) reduce(m uint64, rhs uint8) (uint64, uint8) {
	for k := range st.rows[:st.n] {
		r := &st.rows[k]
		sel := -(m >> r.piv & 1)
		m ^= r.mask & sel
		rhs ^= r.rhs & uint8(sel)
	}
	return m, rhs
}

// add inserts a fully reduced, non-zero residual as a new row and
// returns the row.
func (st *loRows) add(m uint64, rhs uint8) loRow {
	r := loRow{mask: m, rhs: rhs, piv: uint8(bits.TrailingZeros64(m))}
	st.rows[st.n] = r
	st.n++
	return r
}

type splitRow struct {
	mask Vec128
	piv  Vec128 // unit vector at the pivot (lowest set bit of mask)
	rhs0 bool   // right-hand side under branch 0 (split bit = 0)
	rhs1 bool   // right-hand side under branch 1 (split bit = 1)
}

var splitPool = sync.Pool{New: func() any { return new(SplitBasis) }}

// Split conditions the basis on seed bit `bit` symbolically, returning a
// SplitBasis whose branch 0 is "basis ∧ bit=0" and branch 1 is
// "basis ∧ bit=1". It requires a basis of fixed bits only — no echelon
// row — with the bit not among them, which is exactly the state of the
// conditional-expectation loop's candidate bit (bits are examined in
// order and only earlier ones are fixed); ok reports whether that held.
// Release the result with Release when done.
//
//sbw:allocfree Theorem 1.1 phase-step kernel: one Split per seed bit per hub band per phase
func (bs *Basis) Split(bit int) (sb *SplitBasis, ok bool) {
	u := UnitVec(bit)
	if len(bs.rows) > 0 || !bs.fixedMask.And(u).IsZero() {
		return nil, false
	}
	sb = splitPool.Get().(*SplitBasis)
	sb.fixedMask = bs.fixedMask.Xor(u)
	sb.fixedVals = bs.fixedVals // branch 0: split bit = 0
	sb.split = u
	sb.rows = sb.rows[:0]
	sb.hiRows = false
	return sb, true
}

// Release returns the SplitBasis (and its scratch) to the pool.
func (sb *SplitBasis) Release() { splitPool.Put(sb) }

//sbw:allocfree phase-step kernel: clone target comes from the split pool
func (sb *SplitBasis) cloneInto(dst *SplitBasis) *SplitBasis {
	dst.fixedMask = sb.fixedMask
	dst.fixedVals = sb.fixedVals
	dst.split = sb.split
	dst.rows = append(dst.rows[:0], sb.rows...) //sbw:allocok amortized: dst comes from splitPool with its row capacity retained
	dst.hiRows = sb.hiRows
	return dst
}

func splitFromPool(sb *SplitBasis) *SplitBasis {
	return sb.cloneInto(splitPool.Get().(*SplitBasis))
}

// reduce eliminates the stored constraints from the form (mask, c),
// returning the shared residual mask and the branch right-hand sides of
// the event "form = false".
//
//sbw:allocfree phase-step kernel: per-form residual reduction, innermost loop
func (sb *SplitBasis) reduce(mask Vec128, c bool) (Vec128, bool, bool) {
	rhs0, rhs1 := c, c
	if mask.Hi == 0 && !sb.hiRows {
		lo := mask.Lo
		if f := lo & sb.fixedMask.Lo; f != 0 {
			rhs0 = rhs0 != (bits.OnesCount64(f&sb.fixedVals.Lo)&1 == 1)
			rhs1 = rhs0 != (f&sb.split.Lo != 0)
			lo &^= sb.fixedMask.Lo
		} else {
			rhs1 = rhs0
		}
		for i := range sb.rows {
			r := &sb.rows[i]
			if lo&r.piv.Lo != 0 {
				lo ^= r.mask.Lo
				rhs0 = rhs0 != r.rhs0
				rhs1 = rhs1 != r.rhs1
			}
		}
		return Vec128{Lo: lo}, rhs0, rhs1
	}
	if f := mask.And(sb.fixedMask); !f.IsZero() {
		rhs0 = rhs0 != f.And(sb.fixedVals).Parity()
		rhs1 = rhs0 != !f.And(sb.split).IsZero() // branches differ by the split bit's presence
		mask = mask.AndNot(sb.fixedMask)
	}
	for i := range sb.rows {
		r := &sb.rows[i]
		if !mask.And(r.piv).IsZero() {
			mask = mask.Xor(r.mask)
			rhs0 = rhs0 != r.rhs0
			rhs1 = rhs1 != r.rhs1
		}
	}
	return mask, rhs0, rhs1
}

// addReduced inserts the pre-reduced residual of "form = val" and
// returns each branch's AddResult. Independence is mask-determined and
// thus shared; a zero residual classifies per branch.
//
//sbw:allocfree phase-step kernel: row insertion on the pooled walk basis
func (sb *SplitBasis) addReduced(mask Vec128, rhs0, rhs1, val bool) (AddResult, AddResult) {
	rhs0 = rhs0 != val
	rhs1 = rhs1 != val
	if mask.IsZero() {
		a0, a1 := Redundant, Redundant
		if rhs0 {
			a0 = Inconsistent
		}
		if rhs1 {
			a1 = Inconsistent
		}
		return a0, a1
	}
	sb.rows = append(sb.rows, splitRow{mask: mask, piv: UnitVec(mask.LowestBit()), rhs0: rhs0, rhs1: rhs1}) //sbw:allocok amortized: pooled walk basis retains row capacity across evaluations
	if mask.Hi != 0 {
		sb.hiRows = true
	}
	return Independent, Independent
}

// probLessPairInPlace is the dual-branch ProbLess walk on a SplitBasis
// the caller owns: it returns Pr[val(forms) < t] for branch 0 and
// branch 1, accumulating a branch's terms only while that branch's
// constraint system stays consistent (alive0/alive1 seed the flags for
// callers whose branch already died upstream; a dead branch's
// accumulator returns 0). The walk keeps adding the shared mask rows
// after a single branch dies — the survivor still needs them.
//
//sbw:allocfree phase-step kernel: dual-branch ProbLess walk on a pooled basis
func probLessPairInPlace(w *SplitBasis, forms []Form, t uint64, alive0, alive1 bool) (p0, p1 float64) {
	b := len(forms)
	if t == 0 {
		return 0, 0
	}
	if t >= uint64(1)<<b {
		p0, p1 = 0, 0
		if alive0 {
			p0 = 1
		}
		if alive1 {
			p1 = 1
		}
		return p0, p1
	}
	condProb := 1.0
	for idx, fo := range forms {
		bitPos := b - 1 - idx
		tj := t&(1<<bitPos) != 0
		mask, rhs0, rhs1 := w.reduce(fo.Mask, fo.Const)
		if tj {
			if mask.IsZero() {
				if alive0 && !rhs0 {
					p0 += condProb
				}
				if alive1 && !rhs1 {
					p1 += condProb
				}
			} else {
				half := condProb * 0.5
				if alive0 {
					p0 += half
				}
				if alive1 {
					p1 += half
				}
			}
		}
		a0, a1 := w.addReduced(mask, rhs0, rhs1, tj)
		if a0 == Independent {
			condProb *= 0.5 // shared: independence is mask-determined
		}
		if a0 == Inconsistent {
			alive0 = false
		}
		if a1 == Inconsistent {
			alive1 = false
		}
		if !alive0 && !alive1 {
			return p0, p1
		}
	}
	return p0, p1
}

// residPair is one form's residual against a SplitBasis plus any rows a
// walk has layered on top: the shared mask and the per-branch right-hand
// sides of the event "form = false".
type residPair struct {
	mask Vec128
	rhs0 bool
	rhs1 bool
}

// residual reduces a form against the conditioned basis only (fixed
// bits and source rows) — the part shared by every walk of one edge
// evaluation.
//
//sbw:allocfree phase-step kernel: shared residual of one edge evaluation
func (sb *SplitBasis) residual(fo Form) residPair {
	mask, rhs0, rhs1 := sb.reduce(fo.Mask, fo.Const)
	return residPair{mask: mask, rhs0: rhs0, rhs1: rhs1}
}

// innerPairWalk is the dual-branch ProbLess walk over precomputed
// residuals: res[i] is forms[i] reduced against everything below this
// walk (the conditioned basis and, for the joint query, the outer
// walk's accumulated prefix rows), and atom, when non-nil, is one
// additional constraint row ordered before the walk's own rows. Rows
// live in a stack array, so an inner walk allocates nothing and rescans
// only the constraints that are actually new — the residuals already
// absorbed the outer context. Classifications, terms, and order are
// exactly those of probLessPairInPlace on an equivalent SplitBasis.
//
//sbw:allocfree phase-step kernel: stack-array walk, the hottest loop of the derandomization
func innerPairWalk(rows *[64]splitRow, res []residPair, t uint64, atom *splitRow, alive0, alive1 bool) (p0, p1 float64) {
	b := len(res)
	if t == 0 {
		return 0, 0
	}
	if t >= uint64(1)<<b {
		if alive0 {
			p0 = 1
		}
		if alive1 {
			p1 = 1
		}
		return p0, p1
	}
	n := 0
	condProb := 1.0
	for idx := 0; idx < b; idx++ {
		r := res[idx]
		if atom != nil && !r.mask.And(atom.piv).IsZero() {
			r.mask = r.mask.Xor(atom.mask)
			r.rhs0 = r.rhs0 != atom.rhs0
			r.rhs1 = r.rhs1 != atom.rhs1
		}
		for k := 0; k < n; k++ {
			w := &rows[k]
			if !r.mask.And(w.piv).IsZero() {
				r.mask = r.mask.Xor(w.mask)
				r.rhs0 = r.rhs0 != w.rhs0
				r.rhs1 = r.rhs1 != w.rhs1
			}
		}
		tj := t&(1<<(b-1-idx)) != 0
		if tj {
			if r.mask.IsZero() {
				if alive0 && !r.rhs0 {
					p0 += condProb
				}
				if alive1 && !r.rhs1 {
					p1 += condProb
				}
			} else {
				half := condProb * 0.5
				if alive0 {
					p0 += half
				}
				if alive1 {
					p1 += half
				}
			}
		}
		// Continue branch: prefix bit equals tj.
		rr0, rr1 := r.rhs0 != tj, r.rhs1 != tj
		if r.mask.IsZero() {
			if rr0 {
				alive0 = false
			}
			if rr1 {
				alive1 = false
			}
			if !alive0 && !alive1 {
				return p0, p1
			}
		} else {
			rows[n] = splitRow{mask: r.mask, piv: UnitVec(r.mask.LowestBit()), rhs0: rr0, rhs1: rr1}
			n++
			condProb *= 0.5
		}
	}
	return p0, p1
}

// EdgePair returns the six probabilities the Lemma 2.6 edge term needs —
// Pr[C1=1], Pr[C2=1], and Pr[C1=1 ∧ C2=1], each under branch 0 and
// branch 1 — in one pass: C2's residuals against the conditioned basis
// are computed once and shared by its marginal walk and by every inner
// walk of the joint query (updated incrementally as the outer walk adds
// prefix rows), and all walk rows live on the stack. Every output is
// bit-identical to the corresponding single-query evaluations
// (ProbOnePair, and ProbBothLessMarginal on a conditioned Basis). The
// walk runs on two-word masks: its phase-loop caller is the scalar tier
// for seeds longer than 64 bits, which no sheet can carry.
//
//sbw:allocfree phase-step kernel: six edge probabilities per owned edge per seed bit
func (sb *SplitBasis) EdgePair(c1, c2 Coin) (p1u0, p1v0, p110, p1u1, p1v1, p111 float64) {
	fu, tu, fv, tv := c1.forms, c1.t, c2.forms, c2.t
	bu, bv := len(fu), len(fv)

	res := sb.res[:bv]
	fvWalkable := tv > 0 && tv < uint64(1)<<bv
	if fvWalkable {
		for i, fo := range fv {
			res[i] = sb.residual(fo)
		}
		p1v0, p1v1 = innerPairWalk(&sb.inner, res, tv, nil, true, true)
	} else if tv != 0 {
		p1v0, p1v1 = 1, 1
	}

	if tu == 0 {
		return 0, p1v0, 0, 0, p1v1, 0
	}
	if tu >= uint64(1)<<bu {
		// C1 always 1: the joint walk degenerates to C2's marginal.
		return 1, p1v0, p1v0, 1, p1v1, p1v1
	}
	if tv == 0 {
		p1u0, p1u1 = sb.probLessPairClone(fu, tu)
		return p1u0, 0, 0, p1u1, 0, 0
	}

	// Joint walk over C1's threshold decomposition, residuals of C2
	// updated in step with the accumulated prefix rows.
	fuRows := &sb.fuRows
	nfu := 0
	alive0, alive1 := true, true
	condProb := 1.0
	for idx, fo := range fu {
		mask, rhs0, rhs1 := sb.reduce(fo.Mask, fo.Const)
		for k := 0; k < nfu; k++ {
			w := &fuRows[k]
			if !mask.And(w.piv).IsZero() {
				mask = mask.Xor(w.mask)
				rhs0 = rhs0 != w.rhs0
				rhs1 = rhs1 != w.rhs1
			}
		}
		tj := tu&(1<<(bu-1-idx)) != 0
		if tj {
			if mask.IsZero() {
				e0 := alive0 && !rhs0
				e1 := alive1 && !rhs1
				if e0 || e1 {
					q0, q1 := innerPairWalk(&sb.inner, res, tv, nil, e0, e1)
					if e0 {
						p1u0 += condProb
						p110 += condProb * q0
					}
					if e1 {
						p1u1 += condProb
						p111 += condProb * q1
					}
				}
			} else {
				half := condProb * 0.5
				atom := splitRow{mask: mask, piv: UnitVec(mask.LowestBit()), rhs0: rhs0, rhs1: rhs1}
				q0, q1 := innerPairWalk(&sb.inner, res, tv, &atom, alive0, alive1)
				if alive0 {
					p1u0 += half
					p110 += half * q0
				}
				if alive1 {
					p1u1 += half
					p111 += half * q1
				}
			}
		}
		// Continue branch: prefix bit equals tj.
		rr0, rr1 := rhs0 != tj, rhs1 != tj
		if mask.IsZero() {
			if rr0 {
				alive0 = false
			}
			if rr1 {
				alive1 = false
			}
			if !alive0 && !alive1 {
				return p1u0, p1v0, p110, p1u1, p1v1, p111
			}
		} else {
			row := splitRow{mask: mask, piv: UnitVec(mask.LowestBit()), rhs0: rr0, rhs1: rr1}
			fuRows[nfu] = row
			nfu++
			condProb *= 0.5
			if fvWalkable {
				for i := 0; i < bv; i++ {
					if !res[i].mask.And(row.piv).IsZero() {
						res[i].mask = res[i].mask.Xor(row.mask)
						res[i].rhs0 = res[i].rhs0 != row.rhs0
						res[i].rhs1 = res[i].rhs1 != row.rhs1
					}
				}
			}
		}
	}
	return p1u0, p1v0, p110, p1u1, p1v1, p111
}

// formsLo reports whether every form's mask fits the low word.
func formsLo(fs []Form) bool {
	for i := range fs {
		if fs[i].Mask.Hi != 0 {
			return false
		}
	}
	return true
}

// loReduce is the single-word residual of a form against the
// conditioned basis: mask must fit the low word, and the basis must be
// a Split result, whose constraints are all fixed bits. The returned
// byte packs the branch right-hand sides of "form = false" (bit 0 =
// branch 0, bit 1 = branch 1).
func (sb *SplitBasis) loReduce(mask uint64, c bool) (uint64, uint8) {
	var rhs uint8
	if c {
		rhs = 3
	}
	if f := mask & sb.fixedMask.Lo; f != 0 {
		if bits.OnesCount64(f&sb.fixedVals.Lo)&1 == 1 {
			rhs ^= 3
		}
		if f&sb.split.Lo != 0 {
			rhs ^= 2
		}
		mask &^= sb.fixedMask.Lo
	}
	return mask, rhs
}

// loInnerWalk is innerPairWalk on the compact single-word rows: alive
// packs the branch liveness the same way the rhs bytes pack the
// right-hand sides. atom, when hasAtom, is one fully reduced constraint
// seeding the system. The accumulated terms and their order are
// identical to the two-word walk. A term is added only where t has a
// one bit, so the walk ends at t's lowest one: the two-word walk's
// later steps only add rows and retire branches, which changes no
// term.
func loInnerWalk(st *loRows, res []loResid, t uint64, atomMask uint64, atomRhs uint8, hasAtom bool, alive uint8) (p0, p1 float64) {
	b := len(res)
	if t == 0 {
		return 0, 0
	}
	if t >= uint64(1)<<b {
		if alive&1 != 0 {
			p0 = 1
		}
		if alive&2 != 0 {
			p1 = 1
		}
		return p0, p1
	}
	st.n = 0
	if hasAtom {
		st.add(atomMask, atomRhs)
	}
	steps := b - bits.TrailingZeros64(t)
	condProb := 1.0
	for idx := 0; idx < steps; idx++ {
		m, rhs := st.reduce(res[idx].mask, res[idx].rhs)
		tj := t&(1<<(b-1-idx)) != 0
		if tj {
			if m == 0 {
				if alive&1 != 0 && rhs&1 == 0 {
					p0 += condProb
				}
				if alive&2 != 0 && rhs&2 == 0 {
					p1 += condProb
				}
			} else {
				half := condProb * 0.5
				if alive&1 != 0 {
					p0 += half
				}
				if alive&2 != 0 {
					p1 += half
				}
			}
		}
		// Continue branch: prefix bit equals tj.
		rr := rhs
		if tj {
			rr ^= 3
		}
		if m == 0 {
			alive &^= rr
			if alive == 0 {
				return p0, p1
			}
		} else {
			st.add(m, rr)
			condProb *= 0.5
		}
	}
	return p0, p1
}

// probLessPairClone runs the dual-branch ProbLess on a pooled clone.
func (sb *SplitBasis) probLessPairClone(forms []Form, t uint64) (float64, float64) {
	w := splitFromPool(sb)
	p0, p1 := probLessPairInPlace(w, forms, t, true, true)
	w.Release()
	return p0, p1
}

// ProbOnePair returns Pr[C = 1] under branch 0 and branch 1.
//
//sbw:allocfree phase-step kernel: the own-coin marginal of a sheetless node, once per seed bit
func (sb *SplitBasis) ProbOnePair(c Coin) (p0, p1 float64) {
	if c.t == 0 {
		return 0, 0
	}
	if c.t >= uint64(1)<<c.b {
		return 1, 1
	}
	if c.lo {
		res := sb.resLo[:c.b]
		for i, fo := range c.forms {
			m, rhs := sb.loReduce(fo.Mask.Lo, fo.Const)
			res[i] = loResid{mask: m, rhs: rhs}
		}
		return loInnerWalk(&sb.innerLo, res, c.t, 0, 0, false, 3)
	}
	w := splitFromPool(sb)
	p0, p1 = probLessPairInPlace(w, c.forms, c.t, true, true)
	w.Release()
	return p0, p1
}
