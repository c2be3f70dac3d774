package gf2

import (
	"math"
	"testing"

	"smallbandwidth/internal/prng"
)

// ProbBothOne returns Pr[C1 = 1 ∧ C2 = 1 | basis event] exactly: the
// pair oracle that ProbOneAndBothOne's joint half and ProbConj's
// two-coin case are checked against.
func ProbBothOne(bs *Basis, c1, c2 Coin) float64 {
	return ProbBothLess(bs, c1.forms, c1.t, c2.forms, c2.t)
}

func TestNewCoinValidation(t *testing.T) {
	fam := MustFamily(8, 2)
	if _, err := NewCoin(fam, 1, 8, 3, 0); err == nil {
		t.Error("den=0 accepted")
	}
	if _, err := NewCoin(fam, 1, 8, 5, 3); err == nil {
		t.Error("num>den accepted")
	}
	if _, err := NewCoin(fam, 1, 0, 1, 2); err == nil {
		t.Error("b=0 accepted")
	}
	if _, err := NewCoin(fam, 1, 9, 1, 2); err == nil {
		t.Error("b>m accepted")
	}
}

// TestCoinExactProbability verifies Lemma 2.5 exactly by enumerating all
// seeds: Pr[C=1] = T/2^b ∈ [p, p+2^−b], with p ∈ {0,1} exact.
func TestCoinExactProbability(t *testing.T) {
	fam := MustFamily(4, 2)
	seeds := allSeeds(fam.SeedBits())
	for _, pc := range []struct{ num, den uint64 }{
		{0, 5}, {5, 5}, {1, 3}, {2, 3}, {1, 7}, {3, 4}, {7, 9}, {1, 2},
	} {
		for x := uint64(0); x < 16; x++ {
			b := 4
			coin, err := NewCoin(fam, x, b, pc.num, pc.den)
			if err != nil {
				t.Fatal(err)
			}
			ones := 0
			for _, s := range seeds {
				if coin.Value(s) {
					ones++
				}
			}
			got := float64(ones) / float64(len(seeds))
			p := float64(pc.num) / float64(pc.den)
			eps := 1.0 / 16
			if pc.num == 0 && got != 0 {
				t.Fatalf("p=0 x=%d: Pr = %v, want exactly 0", x, got)
			}
			if pc.num == pc.den && got != 1 {
				t.Fatalf("p=1 x=%d: Pr = %v, want exactly 1", x, got)
			}
			if got < p-1e-12 || got > p+eps+1e-12 {
				t.Fatalf("p=%d/%d x=%d: Pr = %v outside [p, p+2^-b]", pc.num, pc.den, x, got)
			}
			// Also: the engine's marginal with empty basis must match the census.
			if eng := coin.ProbOne(NewBasis()); math.Abs(eng-got) > 1e-12 {
				t.Fatalf("engine %v vs census %v", eng, got)
			}
		}
	}
}

// TestAdjacentCoinsIndependent: coins built on distinct inputs are
// independent (the heart of Lemma 2.5's third property).
func TestAdjacentCoinsIndependent(t *testing.T) {
	fam := MustFamily(4, 2)
	seeds := allSeeds(fam.SeedBits())
	c1, _ := NewCoin(fam, 3, 4, 1, 3)
	c2, _ := NewCoin(fam, 9, 4, 2, 5)
	var n11, n1, n2 int
	for _, s := range seeds {
		v1, v2 := c1.Value(s), c2.Value(s)
		if v1 {
			n1++
		}
		if v2 {
			n2++
		}
		if v1 && v2 {
			n11++
		}
	}
	total := float64(len(seeds))
	gotJoint := float64(n11) / total
	wantJoint := float64(n1) / total * float64(n2) / total
	if math.Abs(gotJoint-wantJoint) > 1e-12 {
		t.Fatalf("joint %v ≠ product %v: coins not independent", gotJoint, wantJoint)
	}
	if eng := ProbBothOne(NewBasis(), c1, c2); math.Abs(eng-gotJoint) > 1e-12 {
		t.Fatalf("engine joint %v vs census %v", eng, gotJoint)
	}
}

// TestCoinConditionalVsBrute: marginals and joints conditioned on partial
// seeds agree with enumeration.
func TestCoinConditionalVsBrute(t *testing.T) {
	fam := MustFamily(4, 2)
	d := fam.SeedBits()
	src := prng.New(1234)
	for trial := 0; trial < 200; trial++ {
		den := uint64(1 + src.Intn(9))
		num := uint64(src.Intn(int(den) + 1))
		x1 := src.Uint64() & 15
		x2 := (x1 + 1 + src.Uint64()%15) & 15
		c1, err := NewCoin(fam, x1, 4, num, den)
		if err != nil {
			t.Fatal(err)
		}
		den2 := uint64(1 + src.Intn(9))
		num2 := uint64(src.Intn(int(den2) + 1))
		c2, err := NewCoin(fam, x2, 4, num2, den2)
		if err != nil {
			t.Fatal(err)
		}
		bs := NewBasis()
		var fixedMask, fixedVal uint64
		for i := 0; i < d; i++ {
			if src.Intn(4) == 0 {
				v := src.Uint64()&1 == 1
				fixedMask |= 1 << i
				if v {
					fixedVal |= 1 << i
				}
				bs.FixBit(i, v)
			}
		}
		var n11, n1, total int
		for s := uint64(0); s < 1<<d; s++ {
			if s&fixedMask != fixedVal {
				continue
			}
			total++
			v1 := c1.Value(VecFromUint64(s))
			v2 := c2.Value(VecFromUint64(s))
			if v1 {
				n1++
			}
			if v1 && v2 {
				n11++
			}
		}
		if p := c1.ProbOne(bs); math.Abs(p-float64(n1)/float64(total)) > 1e-12 {
			t.Fatalf("trial %d: marginal %v vs brute %v", trial, p, float64(n1)/float64(total))
		}
		if p := ProbBothOne(bs, c1, c2); math.Abs(p-float64(n11)/float64(total)) > 1e-12 {
			t.Fatalf("trial %d: joint %v vs brute %v", trial, p, float64(n11)/float64(total))
		}
	}
}

func TestCoinThreshold(t *testing.T) {
	fam := MustFamily(8, 2)
	// p = 1/3, b = 4 → T = ceil(16/3) = 6.
	coin, err := NewCoin(fam, 7, 4, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if coin.Threshold() != 6 {
		t.Errorf("T = %d, want 6", coin.Threshold())
	}
	if coin.Bits() != 4 {
		t.Errorf("Bits = %d, want 4", coin.Bits())
	}
	// p = 1 → T = 2^b exactly.
	coin, _ = NewCoin(fam, 7, 4, 3, 3)
	if coin.Threshold() != 16 {
		t.Errorf("p=1: T = %d, want 16", coin.Threshold())
	}
	coin, _ = NewCoin(fam, 7, 4, 0, 3)
	if coin.Threshold() != 0 {
		t.Errorf("p=0: T = %d, want 0", coin.Threshold())
	}
}
