package gf2

import (
	"testing"
	"testing/quick"

	"smallbandwidth/internal/prng"
)

func allSeeds(d int) []Vec128 {
	if d > 20 {
		panic("allSeeds: too many bits to enumerate")
	}
	out := make([]Vec128, 1<<d)
	for s := range out {
		out[s] = VecFromUint64(uint64(s))
	}
	return out
}

func TestFamilyParams(t *testing.T) {
	if _, err := NewFamily(65, 2); err == nil {
		t.Error("NewFamily(65,2): expected error (65·2 > 128)")
	}
	if _, err := NewFamily(8, 0); err == nil {
		t.Error("NewFamily(8,0): expected error")
	}
	fam := MustFamily(8, 2)
	if fam.SeedBits() != 16 {
		t.Errorf("SeedBits = %d, want 16", fam.SeedBits())
	}
	if fam.k != 2 {
		t.Errorf("k = %d, want 2", fam.k)
	}
}

// TestPairwiseIndependenceExact enumerates all seeds of a small family and
// verifies the defining property of Theorem 2.4 exactly: for any distinct
// x1, x2 the pair (h(x1), h(x2)) is uniform over GF(2^m)².
func TestPairwiseIndependenceExact(t *testing.T) {
	const m = 4
	fam := MustFamily(m, 2)
	seeds := allSeeds(fam.SeedBits())
	order := int(fam.Field().Order())
	for x1 := 0; x1 < order; x1++ {
		for x2 := x1 + 1; x2 < order; x2++ {
			counts := make([]int, order*order)
			for _, s := range seeds {
				v1 := fam.Eval(s, uint64(x1))
				v2 := fam.Eval(s, uint64(x2))
				counts[int(v1)*order+int(v2)]++
			}
			want := len(seeds) / (order * order)
			for pair, c := range counts {
				if c != want {
					t.Fatalf("x1=%d x2=%d: pair %d seen %d times, want %d",
						x1, x2, pair, c, want)
				}
			}
		}
	}
}

// TestThreeWiseIndependenceExact does the same for k = 3 on a tiny field.
func TestThreeWiseIndependenceExact(t *testing.T) {
	const m = 2
	fam := MustFamily(m, 3)
	seeds := allSeeds(fam.SeedBits())
	order := int(fam.Field().Order())
	xs := []uint64{0, 1, 3}
	counts := make(map[[3]uint64]int)
	for _, s := range seeds {
		var key [3]uint64
		for i, x := range xs {
			key[i] = fam.Eval(s, x)
		}
		counts[key]++
	}
	want := len(seeds) / (order * order * order)
	if len(counts) != order*order*order {
		t.Fatalf("got %d distinct triples, want %d", len(counts), order*order*order)
	}
	for key, c := range counts {
		if c != want {
			t.Fatalf("triple %v seen %d times, want %d", key, c, want)
		}
	}
}

// TestOutputFormsMatchEval checks that the affine forms evaluate to
// exactly the same bits as direct polynomial evaluation, for random seeds
// and inputs across several field sizes and k values.
func TestOutputFormsMatchEval(t *testing.T) {
	src := prng.New(42)
	for _, cfg := range []struct{ m, k int }{{4, 2}, {8, 2}, {13, 2}, {20, 2}, {8, 3}, {6, 4}} {
		fam := MustFamily(cfg.m, cfg.k)
		for trial := 0; trial < 200; trial++ {
			x := src.Uint64() & (fam.Field().Order() - 1)
			seed := Vec128{Lo: src.Uint64(), Hi: src.Uint64()}
			// Zero out bits beyond the seed length.
			for i := fam.SeedBits(); i < 128; i++ {
				seed = seed.WithBit(i, false)
			}
			full := fam.Eval(seed, x)
			for _, b := range []int{1, cfg.m / 2, cfg.m} {
				if b < 1 {
					b = 1
				}
				forms := fam.OutputForms(x, b)
				got := ValueFromForms(forms, seed)
				want := full & ((uint64(1) << b) - 1)
				if got != want {
					t.Fatalf("m=%d k=%d x=%d b=%d: forms give %#x, Eval gives %#x",
						cfg.m, cfg.k, x, b, got, want)
				}
			}
		}
	}
}

// TestOutputSupportCoversForms pins OutputSupport against the forms
// themselves: over every input x, each output form's seed bits lie in
// the support, and the support is exactly their union — seed bits
// outBits..m−1, coefficient 0's bits above the output, are in no form.
func TestOutputSupportCoversForms(t *testing.T) {
	for _, tc := range []struct{ m, k, outBits int }{
		{4, 2, 4}, {5, 2, 3}, {8, 2, 6}, {11, 2, 10}, {7, 3, 2},
	} {
		fam := MustFamily(tc.m, tc.k)
		sup := fam.OutputSupport(tc.outBits)
		var union Vec128
		for x := uint64(0); x < fam.Field().Order(); x++ {
			for _, fo := range fam.OutputForms(x, tc.outBits) {
				if !fo.Mask.AndNot(sup).IsZero() {
					t.Fatalf("m=%d k=%d b=%d x=%d: form %v leaves support %v",
						tc.m, tc.k, tc.outBits, x, fo.Mask, sup)
				}
				union = Vec128{Lo: union.Lo | fo.Mask.Lo, Hi: union.Hi | fo.Mask.Hi}
			}
		}
		if union != sup {
			t.Errorf("m=%d k=%d b=%d: support %v, forms cover %v", tc.m, tc.k, tc.outBits, sup, union)
		}
		for j := tc.outBits; j < tc.m; j++ {
			if sup.Bit(j) {
				t.Errorf("m=%d k=%d b=%d: seed bit %d reported in a form", tc.m, tc.k, tc.outBits, j)
			}
		}
	}
}

func TestValueFromFormsMSBOrder(t *testing.T) {
	// forms[0] must be the most significant bit.
	fam := MustFamily(4, 2)
	forms := fam.OutputForms(3, 4)
	if len(forms) != 4 {
		t.Fatalf("len(forms) = %d", len(forms))
	}
	seed := VecFromUint64(0b10110101)
	v := ValueFromForms(forms, seed)
	for i, fo := range forms {
		bit := v>>(3-i)&1 == 1
		if fo.Eval(seed) != bit {
			t.Errorf("form %d evaluates inconsistently with packed value", i)
		}
	}
}

func TestFormEval(t *testing.T) {
	f := Form{Mask: VecFromUint64(0b1011), Const: true}
	cases := []struct {
		seed uint64
		want bool
	}{
		{0b0000, true},  // parity 0 ^ 1
		{0b0001, false}, // parity 1 ^ 1
		{0b1011, false}, // parity 3 bits = 1 ^ 1
		{0b0011, true},  // parity 2 bits = 0 ^ 1
	}
	for _, c := range cases {
		if got := f.Eval(VecFromUint64(c.seed)); got != c.want {
			t.Errorf("Eval(%#b) = %v, want %v", c.seed, got, c.want)
		}
	}
}

func TestVec128Quick(t *testing.T) {
	xorSelf := func(lo, hi uint64) bool {
		v := Vec128{lo, hi}
		return v.Xor(v).IsZero()
	}
	bitRoundTrip := func(lo, hi uint64, idx uint8) bool {
		v := Vec128{lo, hi}
		i := int(idx) % 128
		return v.WithBit(i, true).Bit(i) && !v.WithBit(i, false).Bit(i)
	}
	if err := quick.Check(xorSelf, nil); err != nil {
		t.Error(err)
	}
	if err := quick.Check(bitRoundTrip, nil); err != nil {
		t.Error(err)
	}
	if UnitVec(77).LowestBit() != 77 {
		t.Error("UnitVec(77).LowestBit() != 77")
	}
	if (Vec128{}).LowestBit() != -1 {
		t.Error("zero vector LowestBit != -1")
	}
}
