package gf2

import "testing"

// FuzzGF2Mul differentially checks the fast multiplication path — the
// 4-bit windowed carry-less multiply plus the per-field byte-fold
// reduction tables — against the bit-serial polyMulMod reference (which
// shares no code with the fast path) for every supported field degree.
// The two inputs cover the full uint64 range; operands are masked to
// the field inside the loop so every m sees the same raw material.
func FuzzGF2Mul(f *testing.F) {
	f.Add(uint64(0), uint64(0))
	f.Add(uint64(1), ^uint64(0))
	f.Add(uint64(0xb), uint64(0x1b))
	f.Add(^uint64(0), ^uint64(0))
	f.Add(uint64(1)<<62, uint64(1)<<62)
	f.Fuzz(func(t *testing.T, a, b uint64) {
		for m := 1; m <= 63; m++ {
			fl := MustField(m)
			am, bm := a&fl.max, b&fl.max
			got := fl.Mul(am, bm)
			want := polyMulMod(am, bm, fl.g, m)
			if got != want {
				t.Fatalf("m=%d: Mul(%#x,%#x) = %#x, polyMulMod reference = %#x", m, am, bm, got, want)
			}
			if gotC := fl.Mul(bm, am); gotC != got {
				t.Fatalf("m=%d: Mul not commutative on (%#x,%#x): %#x vs %#x", m, am, bm, got, gotC)
			}
		}
	})
}
