package gf2

import (
	"math"
	"math/bits"
	"testing"

	"smallbandwidth/internal/prng"
)

func TestBasisAddAndRank(t *testing.T) {
	bs := NewBasis()
	if bs.Rank() != 0 {
		t.Fatal("fresh basis has nonzero rank")
	}
	// seed bit 0 = 1
	if got := bs.Add(Form{Mask: UnitVec(0)}, true); got != Independent {
		t.Fatalf("first constraint: %v", got)
	}
	// same constraint again: redundant
	if got := bs.Add(Form{Mask: UnitVec(0)}, true); got != Redundant {
		t.Fatalf("repeat constraint: %v", got)
	}
	// contradiction
	if got := bs.Add(Form{Mask: UnitVec(0)}, false); got != Inconsistent {
		t.Fatalf("contradiction: %v", got)
	}
	if bs.Rank() != 1 {
		t.Fatalf("rank = %d, want 1", bs.Rank())
	}
	// bit0 ^ bit1 = 0 → independent.
	if got := bs.Add(Form{Mask: UnitVec(0).Xor(UnitVec(1))}, false); got != Independent {
		t.Fatalf("xor constraint: %v", got)
	}
	if bs.Rank() != 2 {
		t.Fatalf("rank = %d, want 2", bs.Rank())
	}
}

// Rank returns the number of independent constraints.
func (bs *Basis) Rank() int {
	return bits.OnesCount64(bs.fixedMask.Lo) + bits.OnesCount64(bs.fixedMask.Hi) + len(bs.rows)
}

func TestBasisCloneIndependence(t *testing.T) {
	bs := NewBasis()
	bs.FixBit(3, true)
	cl := bs.Clone()
	cl.FixBit(4, false)
	if bs.Rank() != 1 || cl.Rank() != 2 {
		t.Fatalf("clone not independent: ranks %d, %d", bs.Rank(), cl.Rank())
	}
}

func TestFixBitInconsistent(t *testing.T) {
	bs := NewBasis()
	if !bs.FixBit(5, true) {
		t.Fatal("first FixBit failed")
	}
	if bs.FixBit(5, false) {
		t.Fatal("contradictory FixBit succeeded")
	}
}

// bruteProbLess enumerates free seed bits directly.
func bruteProbLess(fixedMask, fixedVal uint64, d int, forms []Form, thr uint64) float64 {
	count, total := 0, 0
	for s := uint64(0); s < 1<<d; s++ {
		if s&fixedMask != fixedVal&fixedMask {
			continue
		}
		total++
		if ValueFromForms(forms, VecFromUint64(s)) < thr {
			count++
		}
	}
	return float64(count) / float64(total)
}

// TestProbLessVsBruteForce cross-validates the echelon-basis engine
// against exhaustive seed enumeration on random small families, random
// thresholds, and random partial seed assignments.
func TestProbLessVsBruteForce(t *testing.T) {
	src := prng.New(7)
	for trial := 0; trial < 300; trial++ {
		m := 3 + src.Intn(3) // field degree 3..5
		fam := MustFamily(m, 2)
		d := fam.SeedBits()
		b := 1 + src.Intn(m)
		x := src.Uint64() & (fam.Field().Order() - 1)
		forms := fam.OutputForms(x, b)
		thr := src.Uint64() % (1<<uint(b) + 1)

		// Random partial assignment.
		var fixedMask, fixedVal uint64
		bs := NewBasis()
		for i := 0; i < d; i++ {
			if src.Uint64()&1 == 1 {
				v := src.Uint64()&1 == 1
				fixedMask |= 1 << i
				if v {
					fixedVal |= 1 << i
				}
				bs.FixBit(i, v)
			}
		}
		got := ProbLess(bs, forms, thr)
		want := bruteProbLess(fixedMask, fixedVal, d, forms, thr)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d (m=%d b=%d x=%d thr=%d fixed=%#x/%#x): engine %v, brute %v",
				trial, m, b, x, thr, fixedMask, fixedVal, got, want)
		}
	}
}

// TestProbBothLessVsBruteForce does the same for the joint query on two
// distinct inputs.
func TestProbBothLessVsBruteForce(t *testing.T) {
	src := prng.New(99)
	for trial := 0; trial < 300; trial++ {
		m := 3 + src.Intn(2) // 3..4
		fam := MustFamily(m, 2)
		d := fam.SeedBits()
		b := 1 + src.Intn(m)
		order := fam.Field().Order()
		x1 := src.Uint64() & (order - 1)
		x2 := src.Uint64() & (order - 1)
		if x1 == x2 {
			x2 = (x2 + 1) & (order - 1)
		}
		f1 := fam.OutputForms(x1, b)
		f2 := fam.OutputForms(x2, b)
		t1 := src.Uint64() % (1<<uint(b) + 1)
		t2 := src.Uint64() % (1<<uint(b) + 1)

		var fixedMask, fixedVal uint64
		bs := NewBasis()
		for i := 0; i < d; i++ {
			if src.Intn(3) == 0 {
				v := src.Uint64()&1 == 1
				fixedMask |= 1 << i
				if v {
					fixedVal |= 1 << i
				}
				bs.FixBit(i, v)
			}
		}
		got := ProbBothLess(bs, f1, t1, f2, t2)

		count, total := 0, 0
		for s := uint64(0); s < 1<<d; s++ {
			if s&fixedMask != fixedVal {
				continue
			}
			total++
			if ValueFromForms(f1, VecFromUint64(s)) < t1 &&
				ValueFromForms(f2, VecFromUint64(s)) < t2 {
				count++
			}
		}
		want := float64(count) / float64(total)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d (m=%d b=%d x1=%d x2=%d t1=%d t2=%d): engine %v, brute %v",
				trial, m, b, x1, x2, t1, t2, got, want)
		}
	}
}

func TestProbLessBoundaries(t *testing.T) {
	fam := MustFamily(5, 2)
	forms := fam.OutputForms(3, 5)
	bs := NewBasis()
	if p := ProbLess(bs, forms, 0); p != 0 {
		t.Errorf("ProbLess(T=0) = %v, want 0", p)
	}
	if p := ProbLess(bs, forms, 1<<5); p != 1 {
		t.Errorf("ProbLess(T=2^b) = %v, want 1", p)
	}
	// Under an empty basis the hash value is uniform: Pr[< T] = T/2^b.
	for thr := uint64(0); thr <= 1<<5; thr++ {
		want := float64(thr) / 32
		if p := ProbLess(bs, forms, thr); math.Abs(p-want) > 1e-15 {
			t.Fatalf("uniform ProbLess(T=%d) = %v, want %v", thr, p, want)
		}
	}
}

// TestProbLessFullyFixedSeed: with every seed bit fixed the probability
// must be exactly 0 or 1 and agree with direct evaluation.
func TestProbLessFullyFixedSeed(t *testing.T) {
	fam := MustFamily(4, 2)
	forms := fam.OutputForms(5, 4)
	src := prng.New(11)
	for trial := 0; trial < 100; trial++ {
		seedVal := src.Uint64() & 0xff
		bs := NewBasis()
		for i := 0; i < 8; i++ {
			bs.FixBit(i, seedVal&(1<<i) != 0)
		}
		thr := src.Uint64() % 17
		got := ProbLess(bs, forms, thr)
		want := 0.0
		if ValueFromForms(forms, VecFromUint64(seedVal)) < thr {
			want = 1.0
		}
		if got != want {
			t.Fatalf("seed %#x thr %d: ProbLess = %v, want %v", seedVal, thr, got, want)
		}
	}
}
