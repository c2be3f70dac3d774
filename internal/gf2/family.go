package gf2

import (
	"fmt"
	"math/bits"
	"sync"
)

// Family is the k-wise independent hash family of Theorem 2.4 [Vad12]:
//
//	h_S(x) = A_{k−1} ⊗ x^{k−1} ⊕ … ⊕ A_1 ⊗ x ⊕ A_0   over GF(2^m),
//
// where the seed S packs the k coefficients A_0..A_{k−1} into k·m bits
// (coefficient j occupies seed bits [j·m, (j+1)·m)). For distinct inputs
// x_1,…,x_k the values h_S(x_1),…,h_S(x_k) are independent and uniform
// over GF(2^m) when S is uniform (Vandermonde argument). The paper's
// algorithms use k = 2 (pairwise independence suffices, Section 1.4).
//
// Every output bit of h_S(x) is an affine (here: linear) form over the
// seed bits, because carry-less multiplication by the constant x^j is
// GF(2)-linear in A_j. OutputForms materializes those forms; they are the
// input to the conditional-probability engine.
type Family struct {
	f *Field
	k int
}

// NewFamily returns the k-wise independent family over GF(2^m).
// Requires k ≥ 1 and k·m ≤ 128 so that seeds fit in a Vec128.
func NewFamily(m, k int) (*Family, error) {
	if k < 1 {
		return nil, fmt.Errorf("gf2: family independence k=%d < 1", k)
	}
	if k*m > 128 {
		return nil, fmt.Errorf("gf2: seed length k·m = %d exceeds 128 bits", k*m)
	}
	f, err := NewField(m)
	if err != nil {
		return nil, err
	}
	return &Family{f: f, k: k}, nil
}

// MustFamily is NewFamily but panics on error.
func MustFamily(m, k int) *Family {
	fam, err := NewFamily(m, k)
	if err != nil {
		panic(err)
	}
	return fam
}

// Field returns the underlying field.
func (fam *Family) Field() *Field { return fam.f }

// SeedBits returns the seed length d = k·m in bits.
func (fam *Family) SeedBits() int { return fam.k * fam.f.m }

// coefficient extracts A_j from the seed in two word shifts.
func (fam *Family) coefficient(seed Vec128, j int) uint64 {
	m := fam.f.m
	return seed.Extract(j*m, m)
}

// Eval evaluates h_S(x) directly (Horner's rule). Used for executing a
// chosen seed and for cross-checking OutputForms in tests. The Horner
// chain costs k−1 table-driven multiplies; the coefficients come out of
// the seed as word extractions, not per-bit probes.
func (fam *Family) Eval(seed Vec128, x uint64) uint64 {
	acc := uint64(0)
	for j := fam.k - 1; j >= 0; j-- {
		acc = fam.f.Mul(acc, x)
		acc ^= fam.coefficient(seed, j)
	}
	return acc
}

// OutputForms returns the affine forms of the low outBits bits of h_S(x),
// most significant first: result[0] is bit outBits−1 of h_S(x), and
// result[outBits−1] is bit 0. Requires 1 ≤ outBits ≤ m.
func (fam *Family) OutputForms(x uint64, outBits int) []Form {
	return fam.OutputFormsInto(x, outBits, nil)
}

// OutputFormsInto is OutputForms writing into dst (grown from dst[:0] and
// returned), so hot callers that cache or pool their form slices add no
// allocation per call.
//
// Construction: h_S(x) = Σ_j A_j ⊗ c_j with constants c_j = x^j, and the
// x-power chain c_0, c_1, … is carried across coefficients (one multiply
// per j, none for the k = 2 case of the paper: c_0 = 1 contributes the
// identity map and c_1 = x is free). Bit t of A_j ⊗ c_j equals the
// parity over i of A_j[i]·(c_j·y^i mod g)[t], so coefficient j's columns
// col_i = c_j·y^i are walked by a MulByX chain, and each set bit t of
// col_i sets seed bit j·m+i in output bit t's form. The forms are the
// only working state, so the frame stays small: a CONGEST node builds
// its forms on its coroutine's stack (see engine.Ctx).
func (fam *Family) OutputFormsInto(x uint64, outBits int, dst []Form) []Form {
	m := fam.f.m
	if outBits < 1 || outBits > m {
		outBitsFault(outBits, m)
	}
	forms := growForms(dst, outBits)
	// Coefficient 0: c_0 = 1, so col_i = y^i and bit t of col_i is set
	// iff i == t — output bit t is exactly seed bit t.
	for t := 0; t < outBits; t++ {
		forms[outBits-1-t].Mask = forms[outBits-1-t].Mask.orAt(0, uint64(1)<<t)
	}
	cj := x
	outMask := uint64(1)<<outBits - 1
	for j := 1; j < fam.k; j++ {
		if j > 1 {
			cj = fam.f.Mul(cj, x) // c_j = x^j; no multiplies for k ≤ 2
		}
		col := cj
		for i := 0; i < m; i++ {
			for rem := col & outMask; rem != 0; rem &= rem - 1 {
				idx := outBits - 1 - bits.TrailingZeros64(rem) // MSB-first position of the bit
				forms[idx].Mask = forms[idx].Mask.WithBit(j*m+i, true)
			}
			col = fam.f.MulByX(col)
		}
	}
	return forms
}

// outBitsFault reports an output width outside [1, m]; out of line, so
// the formatting does not widen the callers' frames.
//
//go:noinline
func outBitsFault(outBits, m int) {
	panic(fmt.Sprintf("gf2: outBits=%d out of range [1,%d]", outBits, m))
}

// OutputSupport returns the seed bits some form of OutputForms(x,
// outBits) can contain, over every input x: coefficient 0 reaches only
// the output bits below outBits (seed bits 0..outBits−1), and every
// higher coefficient j may reach all of its seed bits [j·m, (j+1)·m).
// The seed bits outBits..m−1 are therefore in no such form, and a
// conditional expectation over those forms is the same under both
// values of such a bit.
func (fam *Family) OutputSupport(outBits int) Vec128 {
	m := fam.f.m
	if outBits < 1 || outBits > m {
		outBitsFault(outBits, m)
	}
	var v Vec128
	for i := 0; i < fam.k*m; i++ {
		if i >= m || i < outBits {
			v = v.WithBit(i, true)
		}
	}
	return v
}

// growForms resizes dst to n zeroed Forms, reusing its backing storage
// when the capacity suffices.
func growForms(dst []Form, n int) []Form {
	if cap(dst) < n {
		return make([]Form, n)
	}
	dst = dst[:n]
	for i := range dst {
		dst[i] = Form{}
	}
	return dst
}

// formScratch pools the full-width intermediate of WindowFormsInto.
var formScratch = sync.Pool{New: func() any { return new([]Form) }}

// WindowForms returns the affine forms of bits [lo, lo+width) of h_S(x),
// most significant first (result[0] is bit lo+width−1). Windows let one
// pairwise-independent hash evaluation drive several independent biased
// coins per node (the multi-bit acceleration of Theorem 1.3): for a
// uniform field element, disjoint bit windows are independent, and across
// two nodes the full values are already independent.
func (fam *Family) WindowForms(x uint64, lo, width int) []Form {
	return fam.WindowFormsInto(x, lo, width, nil)
}

// WindowFormsInto is WindowForms writing into dst (grown from dst[:0] and
// returned); the full-width intermediate comes from an internal pool.
func (fam *Family) WindowFormsInto(x uint64, lo, width int, dst []Form) []Form {
	m := fam.f.m
	if lo < 0 || width < 1 || lo+width > m {
		panic(fmt.Sprintf("gf2: window [%d,%d) out of range for m=%d", lo, lo+width, m))
	}
	scratch := formScratch.Get().(*[]Form)
	full := fam.OutputFormsInto(x, m, *scratch) // full[i] is bit m−1−i
	forms := growForms(dst, width)
	for i := 0; i < width; i++ {
		// forms[i] must be bit lo+width−1−i.
		forms[i] = full[m-1-(lo+width-1-i)]
	}
	*scratch = full
	formScratch.Put(scratch)
	return forms
}

// ValueFromForms evaluates MSB-first forms on a seed and packs them into
// an integer (forms[0] is the most significant bit).
func ValueFromForms(forms []Form, seed Vec128) uint64 {
	var v uint64
	for _, fo := range forms {
		v <<= 1
		if fo.Eval(seed) {
			v |= 1
		}
	}
	return v
}
