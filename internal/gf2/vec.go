package gf2

import "math/bits"

// Vec128 is a 128-bit vector over GF(2), used both for seed assignments
// (bit i = seed bit i) and for the masks of linear forms over the seed
// bits. Bit indices run 0..127.
type Vec128 struct {
	Lo, Hi uint64
}

// Xor returns v ⊕ w.
func (v Vec128) Xor(w Vec128) Vec128 { return Vec128{v.Lo ^ w.Lo, v.Hi ^ w.Hi} }

// And returns the bitwise AND of v and w.
func (v Vec128) And(w Vec128) Vec128 { return Vec128{v.Lo & w.Lo, v.Hi & w.Hi} }

// AndNot returns v with every bit of w cleared.
func (v Vec128) AndNot(w Vec128) Vec128 { return Vec128{v.Lo &^ w.Lo, v.Hi &^ w.Hi} }

// IsUnit reports whether exactly one bit is set.
func (v Vec128) IsUnit() bool {
	return (v.Lo == 0) != (v.Hi == 0) && v.Lo&(v.Lo-1) == 0 && v.Hi&(v.Hi-1) == 0
}

// IsZero reports whether all bits are zero.
func (v Vec128) IsZero() bool { return v.Lo == 0 && v.Hi == 0 }

// Parity returns the XOR of all bits of v.
func (v Vec128) Parity() bool {
	return (bits.OnesCount64(v.Lo)+bits.OnesCount64(v.Hi))&1 == 1
}

// Bit returns bit i of v.
func (v Vec128) Bit(i int) bool {
	if i < 64 {
		return v.Lo&(1<<i) != 0
	}
	return v.Hi&(1<<(i-64)) != 0
}

// WithBit returns v with bit i set to val.
func (v Vec128) WithBit(i int, val bool) Vec128 {
	if i < 64 {
		mask := uint64(1) << i
		if val {
			v.Lo |= mask
		} else {
			v.Lo &^= mask
		}
	} else {
		mask := uint64(1) << (i - 64)
		if val {
			v.Hi |= mask
		} else {
			v.Hi &^= mask
		}
	}
	return v
}

// UnitVec returns the vector with only bit i set.
func UnitVec(i int) Vec128 {
	var v Vec128
	return v.WithBit(i, true)
}

// LowestBit returns the index of the lowest set bit, or -1 if zero.
func (v Vec128) LowestBit() int {
	if v.Lo != 0 {
		return bits.TrailingZeros64(v.Lo)
	}
	if v.Hi != 0 {
		return 64 + bits.TrailingZeros64(v.Hi)
	}
	return -1
}

// VecFromUint64 returns the vector whose low 64 bits are x.
func VecFromUint64(x uint64) Vec128 { return Vec128{Lo: x} }

// Extract returns bits [start, start+width) of v as an integer (bit
// start becomes bit 0). Requires 0 ≤ start, width ≤ 64, start+width ≤ 128.
// It replaces per-bit Bit() loops in the seed-coefficient hot path.
func (v Vec128) Extract(start, width int) uint64 {
	var out uint64
	switch {
	case start >= 64:
		out = v.Hi >> (start - 64)
	case start == 0:
		out = v.Lo
	default:
		out = v.Lo>>start | v.Hi<<(64-start)
	}
	if width == 64 {
		return out
	}
	return out & (uint64(1)<<width - 1)
}

// orAt returns v with the low `width` bits of w OR-ed in at bit offset
// off. Requires off+width ≤ 128 and width ≤ 64.
func (v Vec128) orAt(off int, w uint64) Vec128 {
	if off < 64 {
		v.Lo |= w << off
		if off > 0 {
			v.Hi |= w >> (64 - off)
		}
	} else {
		v.Hi |= w << (off - 64)
	}
	return v
}

// Form is an affine form over the seed bits: Eval(seed) =
// parity(Mask AND seed) XOR Const.
type Form struct {
	Mask  Vec128
	Const bool
}

// Eval evaluates the form on a full seed assignment.
func (fo Form) Eval(seed Vec128) bool {
	return fo.Mask.And(seed).Parity() != fo.Const
}
