package gf2

import (
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

// TestNewFieldConcurrentFirstUse requests degrees no earlier test in
// the package builds from several goroutines at once, as concurrent
// colorserve requests do: under -race an unguarded cache fails here,
// and every caller must get the one cached field of each degree.
func TestNewFieldConcurrentFirstUse(t *testing.T) {
	const goroutines, lo, hi = 4, 40, 47
	var got [goroutines][hi - lo + 1]*Field
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for m := lo; m <= hi; m++ {
				f, err := NewField(m)
				if err != nil {
					t.Errorf("NewField(%d): %v", m, err)
					return
				}
				got[g][m-lo] = f
			}
		}(g)
	}
	wg.Wait()
	for m := lo; m <= hi; m++ {
		want := MustField(m)
		if want.M() != m {
			t.Fatalf("NewField(%d).M() = %d", m, want.M())
		}
		for g := range got {
			if got[g][m-lo] != want {
				t.Errorf("goroutine %d got a different GF(2^%d) than the cache holds", g, m)
			}
		}
	}
}

func TestNewFieldRange(t *testing.T) {
	for _, m := range []int{0, -1, 64, 100} {
		if _, err := NewField(m); err == nil {
			t.Errorf("NewField(%d): expected error", m)
		}
	}
	for _, m := range []int{1, 2, 8, 16, 32, 63} {
		f, err := NewField(m)
		if err != nil {
			t.Fatalf("NewField(%d): %v", m, err)
		}
		if f.M() != m {
			t.Errorf("NewField(%d).M() = %d", m, f.M())
		}
		if f.Order() != uint64(1)<<m {
			t.Errorf("NewField(%d).Order() = %d", m, f.Order())
		}
	}
}

func TestFieldCached(t *testing.T) {
	a := MustField(8)
	b := MustField(8)
	if a != b {
		t.Error("MustField(8) not cached")
	}
}

func TestReductionPolyIrreducible(t *testing.T) {
	for m := 1; m <= 20; m++ {
		f := MustField(m)
		if m > 1 && !isIrreducible(f.g, m) {
			t.Errorf("m=%d: reduction poly %#x not irreducible", m, f.g)
		}
	}
}

func TestKnownIrreducibles(t *testing.T) {
	// Cross-check the search against textbook irreducible polynomials.
	if !isIrreducible(0x1B, 8) {
		t.Error("AES polynomial x^8+x^4+x^3+x+1 reported reducible")
	}
	if isIrreducible(0x1A, 8) {
		t.Error("x^8+x^4+x^3+x reported irreducible (divisible by x)")
	}
	if !isIrreducible(0b11, 2) {
		t.Error("x^2+x+1 reported reducible")
	}
	if isIrreducible(0b01, 2) {
		t.Error("x^2+1 = (x+1)^2 reported irreducible")
	}
}

func TestMulSmallFieldTables(t *testing.T) {
	// GF(4) with x^2+x+1: elements 0,1,x=2,x+1=3.
	f := MustField(2)
	if f.g != 0b11 {
		t.Fatalf("GF(4) reduction poly = %#b, want 11", f.g)
	}
	cases := []struct{ a, b, want uint64 }{
		{0, 0, 0}, {0, 3, 0}, {1, 2, 2}, {1, 3, 3},
		{2, 2, 3}, // x·x = x² = x+1
		{2, 3, 1}, // x(x+1) = x²+x = 1
		{3, 3, 2}, // (x+1)² = x²+1 = x
	}
	for _, c := range cases {
		if got := f.Mul(c.a, c.b); got != c.want {
			t.Errorf("GF(4): %d·%d = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestFieldAxiomsQuick(t *testing.T) {
	for _, m := range []int{3, 8, 16, 33, 63} {
		f := MustField(m)
		mask := f.Order() - 1
		comm := func(a, b uint64) bool {
			a, b = a&mask, b&mask
			return f.Mul(a, b) == f.Mul(b, a)
		}
		assoc := func(a, b, c uint64) bool {
			a, b, c = a&mask, b&mask, c&mask
			return f.Mul(f.Mul(a, b), c) == f.Mul(a, f.Mul(b, c))
		}
		distrib := func(a, b, c uint64) bool {
			a, b, c = a&mask, b&mask, c&mask
			return f.Mul(a, b^c) == f.Mul(a, b)^f.Mul(a, c)
		}
		identity := func(a uint64) bool {
			a &= mask
			return f.Mul(a, 1) == a && f.Mul(1, a) == a
		}
		for name, prop := range map[string]any{
			"commutative": comm, "associative": assoc,
			"distributive": distrib, "identity": identity,
		} {
			if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
				t.Errorf("m=%d %s: %v", m, name, err)
			}
		}
	}
}

// Order returns 2^m, the number of field elements.
func (f *Field) Order() uint64 { return f.max + 1 }

// Pow returns a^e in the field (a^0 = 1).
func (f *Field) Pow(a uint64, e uint64) uint64 {
	result := uint64(1)
	base := a & f.max
	for e > 0 {
		if e&1 == 1 {
			result = f.Mul(result, base)
		}
		base = f.Mul(base, base)
		e >>= 1
	}
	return result
}

// Inv returns the multiplicative inverse of a ≠ 0 via a^(2^m − 2).
func (f *Field) Inv(a uint64) (uint64, error) {
	if a&f.max == 0 {
		return 0, fmt.Errorf("gf2: inverse of zero")
	}
	return f.Pow(a, f.max-1), nil
}

func TestFieldInverse(t *testing.T) {
	f := MustField(11)
	for a := uint64(1); a < 300; a++ {
		inv, err := f.Inv(a)
		if err != nil {
			t.Fatalf("Inv(%d): %v", a, err)
		}
		if f.Mul(a, inv) != 1 {
			t.Fatalf("a·a⁻¹ ≠ 1 for a=%d (inv=%d)", a, inv)
		}
	}
	if _, err := f.Inv(0); err == nil {
		t.Error("Inv(0): expected error")
	}
}

func TestMulByXMatchesMul(t *testing.T) {
	for _, m := range []int{4, 9, 24, 63} {
		f := MustField(m)
		check := func(a uint64) bool {
			a &= f.Order() - 1
			return f.MulByX(a) == f.Mul(a, 2)
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 300}); err != nil {
			t.Errorf("m=%d: MulByX disagrees with Mul: %v", m, err)
		}
	}
}

func TestPow(t *testing.T) {
	f := MustField(8)
	for a := uint64(0); a < 40; a++ {
		want := uint64(1)
		for e := 0; e < 10; e++ {
			if got := f.Pow(a, uint64(e)); got != want {
				t.Fatalf("Pow(%d,%d) = %d, want %d", a, e, got, want)
			}
			want = f.Mul(want, a)
		}
	}
	// Fermat: a^(2^m−1) = 1 for a ≠ 0.
	for a := uint64(1); a < 256; a++ {
		if f.Pow(a, f.Order()-1) != 1 {
			t.Fatalf("Fermat fails for a=%d", a)
		}
	}
}

func TestClmul(t *testing.T) {
	cases := []struct {
		a, b   uint64
		hi, lo uint64
	}{
		{0, 0, 0, 0},
		{1, 0xffffffffffffffff, 0, 0xffffffffffffffff},
		{2, 1 << 63, 1, 0},
		{3, 3, 0, 5}, // (x+1)² = x²+1
	}
	for _, c := range cases {
		hi, lo := clmul(c.a, c.b)
		if hi != c.hi || lo != c.lo {
			t.Errorf("clmul(%#x,%#x) = (%#x,%#x), want (%#x,%#x)",
				c.a, c.b, hi, lo, c.hi, c.lo)
		}
	}
	comm := func(a, b uint64) bool {
		h1, l1 := clmul(a, b)
		h2, l2 := clmul(b, a)
		return h1 == h2 && l1 == l2
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Error(err)
	}
}
