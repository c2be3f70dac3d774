package gf2

import (
	"math/bits"
	"sync"
)

// basisPool recycles the scratch bases that ProbLess/ProbBothLess clone
// on every call: the conditional-expectation inner loop evaluates these
// millions of times per run, and pooling the row storage removes the
// dominant allocation of the whole derandomization.
var basisPool = sync.Pool{New: func() any { return new(Basis) }}

func cloneFromPool(bs *Basis) *Basis {
	return bs.CloneInto(basisPool.Get().(*Basis))
}

func releaseBasis(w *Basis) { basisPool.Put(w) }

// AddResult classifies the outcome of adding an affine constraint to a
// Basis.
type AddResult int

const (
	// Independent: the constraint was linearly independent and was added;
	// the rank grew by one (the event probability halves).
	Independent AddResult = iota + 1
	// Redundant: the constraint is implied by the basis; nothing changed.
	Redundant
	// Inconsistent: the constraint contradicts the basis; the joint event
	// has probability zero. The basis is left unchanged.
	Inconsistent
)

// Basis is a system of consistent affine constraints over the seed bits,
// kept in echelon form. Over a uniformly random seed, the event "all
// constraints hold" has probability 2^−rank.
//
// Basis is the workhorse of the method of conditional expectations
// (Lemma 2.6): fixed seed bits are unit constraints, and coin events add
// hash-output-bit constraints. The zero value is an empty basis.
//
// Representation: the method-of-conditional-expectations outer loop only
// ever adds *unit* constraints ("seed bit i = β"), so those are stored
// compressed as two bit vectors (fixedMask, fixedVals) instead of one
// echelon row each. Reducing a form against all fixed bits is then two
// AND/XOR word operations — O(1) instead of O(#fixed bits) row scans —
// and cloning a fixed-bits-only basis copies four words. Constraints
// whose residual is not a unit vector keep the classic one-row-per-pivot
// echelon form. The invariants connecting the two halves:
//
//   - no row's mask intersects fixedMask (maintained by back-substituting
//     rows when a residual turns out to be a unit vector), and
//   - no fixed bit is any row's pivot (a unit residual can never land on
//     an existing pivot — reduction would have eliminated it);
//
// so "fold the fixed bits, then one in-insertion-order pass over the
// rows" is a complete reduction, and — reduction modulo a fixed affine
// span being unique — every residual, AddResult classification, and
// probability is bit-identical to the all-rows representation.
type Basis struct {
	fixedMask Vec128 // bits with a stored unit constraint
	fixedVals Vec128 // their values (0 outside fixedMask)
	rows      []basisRow
	// hiRows records whether any row mask has bits ≥ 64. The families in
	// every practical parameterization have seed length ≤ 64 (k·m ≤ 64),
	// so reductions run on single words; hiRows = true falls back to the
	// two-word path. The flag is conservative: false means provably no
	// high bits (the zero value, an empty basis, qualifies).
	hiRows bool
}

type basisRow struct {
	mask  Vec128 // left-hand side: parity(mask & seed)
	rhs   bool   // right-hand side
	pivot int    // lowest set bit of mask; unique per row
}

// NewBasis returns an empty basis.
func NewBasis() *Basis { return &Basis{} }

// Reset empties the basis in place, keeping the row storage for reuse.
func (bs *Basis) Reset() {
	bs.fixedMask = Vec128{}
	bs.fixedVals = Vec128{}
	bs.rows = bs.rows[:0]
	bs.hiRows = false
}

// Clone returns an independent copy of the basis.
func (bs *Basis) Clone() *Basis {
	rows := make([]basisRow, len(bs.rows))
	copy(rows, bs.rows)
	return &Basis{fixedMask: bs.fixedMask, fixedVals: bs.fixedVals, rows: rows, hiRows: bs.hiRows}
}

// CloneInto copies the basis into dst, reusing dst's backing storage,
// and returns dst. It exists for hot loops — the method of conditional
// expectations clones the basis twice per seed bit per conflict edge —
// where Clone's fresh allocation dominates the profile. dst must not be
// bs itself.
func (bs *Basis) CloneInto(dst *Basis) *Basis {
	dst.fixedMask = bs.fixedMask
	dst.fixedVals = bs.fixedVals
	dst.rows = append(dst.rows[:0], bs.rows...)
	dst.hiRows = bs.hiRows
	return dst
}

// reduce eliminates all stored constraints from (mask, rhs): the fixed
// bits in one fold, then the rows in insertion order. Because each row
// was reduced against the fixed bits and all earlier rows when it was
// inserted, a single in-order pass is a complete reduction. Forms whose
// mask fits the low word run entirely on single-word operations when no
// row has high bits.
func (bs *Basis) reduce(mask Vec128, rhs bool) (Vec128, bool) {
	if mask.Hi == 0 && !bs.hiRows {
		lo := mask.Lo
		if f := lo & bs.fixedMask.Lo; f != 0 {
			rhs = rhs != (bits.OnesCount64(f&bs.fixedVals.Lo)&1 == 1)
			lo &^= bs.fixedMask.Lo
		}
		for i := range bs.rows {
			r := &bs.rows[i]
			if lo&(1<<r.pivot) != 0 {
				lo ^= r.mask.Lo
				rhs = rhs != r.rhs
			}
		}
		return Vec128{Lo: lo}, rhs
	}
	if fixed := mask.And(bs.fixedMask); !fixed.IsZero() {
		rhs = rhs != fixed.And(bs.fixedVals).Parity()
		mask = mask.AndNot(bs.fixedMask)
	}
	for i := range bs.rows {
		r := &bs.rows[i]
		if mask.Bit(r.pivot) {
			mask = mask.Xor(r.mask)
			rhs = rhs != r.rhs
		}
	}
	return mask, rhs
}

// Add inserts the constraint "form evaluates to val" and reports whether
// it was independent, redundant, or inconsistent.
func (bs *Basis) Add(fo Form, val bool) AddResult {
	// parity(mask & seed) ^ const == val  ⇔  parity(mask & seed) == val ^ const.
	mask, rhs := bs.reduce(fo.Mask, fo.Const)
	return bs.addReduced(mask, rhs, val)
}

// addReduced finishes an Add whose reduction already happened: (mask,
// rhs) must be reduce(fo.Mask, fo.Const) against this basis — or against
// a basis with identical content, which is how the probability walks
// share one reduction between the "event" and "continue" branches of a
// threshold bit, and between a scratch clone and its source.
func (bs *Basis) addReduced(mask Vec128, rhs, val bool) AddResult {
	rhs = rhs != val
	if mask.IsZero() {
		if rhs {
			return Inconsistent
		}
		return Redundant
	}
	if mask.IsUnit() {
		// Unit residual: store compressed. The bit cannot be an existing
		// pivot (reduction would have cleared it), so back-substituting it
		// out of the row masks never moves a pivot and preserves the
		// "rows avoid fixed bits" invariant.
		bs.fixedMask = bs.fixedMask.Xor(mask)
		if rhs {
			bs.fixedVals = bs.fixedVals.Xor(mask)
		}
		for i := range bs.rows {
			r := &bs.rows[i]
			if !r.mask.And(mask).IsZero() {
				r.mask = r.mask.AndNot(mask)
				r.rhs = r.rhs != rhs
			}
		}
		return Independent
	}
	bs.rows = append(bs.rows, basisRow{mask: mask, rhs: rhs, pivot: mask.LowestBit()})
	if mask.Hi != 0 {
		bs.hiRows = true
	}
	return Independent
}

// FixBit adds the unit constraint "seed bit i == val". It returns false
// if that contradicts the basis.
func (bs *Basis) FixBit(i int, val bool) bool {
	return bs.Add(Form{Mask: UnitVec(i)}, val) != Inconsistent
}

// ProbLess returns Pr[val(forms) < t | basis event], where forms are the
// MSB-first affine forms of a b-bit value and 0 ≤ t ≤ 2^b. The basis is
// not modified. The result is an exact dyadic rational.
//
// Decomposition: {V < t} = ⊎_{j: t_j = 1} {V_{>j} = t_{>j} ∧ V_j = 0},
// walking bits MSB→LSB while accumulating prefix-equality constraints.
func ProbLess(bs *Basis, forms []Form, t uint64) float64 {
	if t == 0 {
		return 0
	}
	if t >= uint64(1)<<len(forms) {
		return 1
	}
	w := cloneFromPool(bs)
	prob := probLessInPlace(w, forms, t)
	releaseBasis(w)
	return prob
}

// probLessInPlace is the ProbLess walk on a basis the caller owns and
// lets the walk consume (it accumulates the prefix-equality constraints
// directly instead of cloning first). Each threshold bit costs one
// reduction, shared between the event-probability read and the
// constraint insertion — the naive walk's probability query and Add
// reduced the same form twice. The accumulated terms and their order are
// identical to the naive walk, so results are bit-identical.
//
// The float rule of every walk in this package (ProbConj and the
// split and block walks keep condProb the same way): condProb starts
// at 1 and is only ever halved, at most once per form of a ≤ 63-form
// coin, so it and condProb·0.5 are powers of two no smaller than 2⁻⁶⁴,
// and their product with a probability is exact. So where arm64,
// ppc64le, s390x or riscv64 fuse p += condProb*q into one multiply-add,
// its single rounding equals the separate ops' bits on amd64. A new
// float product keeps one factor a power of two, or rounds explicitly
// with a float64 conversion, as core's edgeCombine does.
func probLessInPlace(w *Basis, forms []Form, t uint64) float64 {
	b := len(forms)
	if t == 0 {
		return 0
	}
	if t >= uint64(1)<<b {
		return 1
	}
	prob := 0.0
	condProb := 1.0 // Pr[prefix constraints so far | basis]
	for idx, fo := range forms {
		bitPos := b - 1 - idx // semantic bit position (MSB = b−1)
		tj := t&(1<<bitPos) != 0
		mask, rhs := w.reduce(fo.Mask, fo.Const) // rhs of the event "form = 0"
		if tj {
			if mask.IsZero() {
				if !rhs {
					prob += condProb // bit forced to 0: event implied
				}
			} else {
				prob += condProb * 0.5
			}
		}
		switch w.addReduced(mask, rhs, tj) {
		case Independent:
			condProb *= 0.5
		case Redundant:
			// condProb unchanged
		case Inconsistent:
			return prob
		}
	}
	return prob
}

// ProbBothLess returns Pr[val(fu) < tu ∧ val(fv) < tv | basis event].
// It decomposes the first event into prefix-disjoint affine events and
// evaluates ProbLess for the second under each; exact, O(b³) word ops.
func ProbBothLess(bs *Basis, fu []Form, tu uint64, fv []Form, tv uint64) float64 {
	if tu == 0 || tv == 0 {
		return 0
	}
	_, pboth := ProbBothLessMarginal(bs, fu, tu, fv, tv)
	return pboth
}

// ProbBothLessMarginal returns both Pr[val(fu) < tu | basis event] and
// Pr[val(fu) < tu ∧ val(fv) < tv | basis event] from one walk of fu's
// threshold decomposition: the joint query visits exactly the atoms and
// conditional probabilities of the marginal's walk, so computing them
// together saves the conditional-expectation hot path a full ProbLess
// per edge evaluation. Terms accumulate in the same order as the
// separate queries, so both results are bit-identical to them.
func ProbBothLessMarginal(bs *Basis, fu []Form, tu uint64, fv []Form, tv uint64) (pu, pboth float64) {
	bu := len(fu)
	if tu == 0 {
		return 0, 0
	}
	if tv == 0 {
		if tu >= uint64(1)<<bu {
			return 1, 0
		}
		return ProbLess(bs, fu, tu), 0
	}
	if tu >= uint64(1)<<bu {
		return 1, ProbLess(bs, fv, tv)
	}
	w := cloneFromPool(bs)
	defer releaseBasis(w)
	condProb := 1.0
	for idx, fo := range fu {
		bitPos := bu - 1 - idx
		tj := tu&(1<<bitPos) != 0
		mask, rhs := w.reduce(fo.Mask, fo.Const) // rhs of the event "form = 0"
		if tj {
			// Event E: prefix equal (already in w) ∧ this bit = 0.
			if mask.IsZero() {
				if !rhs {
					pu += condProb
					pboth += condProb * ProbLess(w, fv, tv)
				}
				// Contradicted atom: contributes zero to both.
			} else {
				pu += condProb * 0.5
				w2 := cloneFromPool(w)
				w2.addReduced(mask, rhs, false)
				pboth += condProb * 0.5 * probLessInPlace(w2, fv, tv)
				releaseBasis(w2)
			}
		}
		switch w.addReduced(mask, rhs, tj) {
		case Independent:
			condProb *= 0.5
		case Redundant:
		case Inconsistent:
			return pu, pboth
		}
	}
	return pu, pboth
}
