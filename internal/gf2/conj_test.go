package gf2

import (
	"math"
	"testing"

	"smallbandwidth/internal/prng"
)

func TestWindowFormsMatchEval(t *testing.T) {
	fam := MustFamily(12, 2)
	src := prng.New(5)
	for trial := 0; trial < 200; trial++ {
		x := src.Uint64() & (fam.Field().Order() - 1)
		seed := Vec128{Lo: src.Uint64(), Hi: 0}
		for i := fam.SeedBits(); i < 64; i++ {
			seed = seed.WithBit(i, false)
		}
		full := fam.Eval(seed, x)
		lo := src.Intn(11)
		width := 1 + src.Intn(12-lo)
		forms := fam.WindowForms(x, lo, width)
		got := ValueFromForms(forms, seed)
		want := (full >> uint(lo)) & ((1 << uint(width)) - 1)
		if got != want {
			t.Fatalf("trial %d: window [%d,%d) = %#x, want %#x", trial, lo, lo+width, got, want)
		}
	}
}

func TestWindowIndependenceWithinNode(t *testing.T) {
	// Two disjoint windows of one hash value behave as independent
	// uniform values over the seed space.
	fam := MustFamily(4, 2)
	seeds := allSeeds(fam.SeedBits())
	loForms := fam.WindowForms(9, 0, 2)
	hiForms := fam.WindowForms(9, 2, 2)
	counts := map[[2]uint64]int{}
	for _, s := range seeds {
		counts[[2]uint64{ValueFromForms(loForms, s), ValueFromForms(hiForms, s)}]++
	}
	want := len(seeds) / 16
	for pair, c := range counts {
		if c != want {
			t.Fatalf("pair %v seen %d times, want %d", pair, c, want)
		}
	}
}

// TestProbConjVsBruteForce cross-validates ProbConj against enumeration
// for random event sets over one or two hash inputs and mixed
// orientations.
func TestProbConjVsBruteForce(t *testing.T) {
	src := prng.New(31)
	fam := MustFamily(4, 2)
	d := fam.SeedBits()
	for trial := 0; trial < 200; trial++ {
		nev := 1 + src.Intn(4)
		events := make([]CoinEvent, nev)
		for i := range events {
			x := src.Uint64() & 15
			lo := src.Intn(3)
			width := 1 + src.Intn(4-lo)
			den := uint64(1 + src.Intn(7))
			num := uint64(src.Intn(int(den) + 1))
			coin, err := NewCoinFromForms(fam.WindowForms(x, lo, width), num, den)
			if err != nil {
				t.Fatal(err)
			}
			events[i] = CoinEvent{Coin: coin, Want: src.Uint64()&1 == 1}
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
		got := ProbConj(bs, events)

		match, total := 0, 0
		for s := uint64(0); s < 1<<d; s++ {
			if s&fixedMask != fixedVal {
				continue
			}
			total++
			all := true
			for _, ev := range events {
				if ev.Coin.Value(VecFromUint64(s)) != ev.Want {
					all = false
					break
				}
			}
			if all {
				match++
			}
		}
		want := float64(match) / float64(total)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d (%d events): engine %v, brute %v", trial, nev, got, want)
		}
	}
}

func TestProbConjReducesToPairQueries(t *testing.T) {
	fam := MustFamily(5, 2)
	c1, _ := NewCoin(fam, 3, 5, 2, 5)
	c2, _ := NewCoin(fam, 11, 5, 3, 7)
	bs := NewBasis()
	bs.FixBit(2, true)
	both := ProbConj(bs, []CoinEvent{{c1, true}, {c2, true}})
	if math.Abs(both-ProbBothOne(bs, c1, c2)) > 1e-12 {
		t.Error("ProbConj(1,1) disagrees with ProbBothOne")
	}
	zz := ProbConj(bs, []CoinEvent{{c1, false}, {c2, false}})
	if math.Abs(zz-(1-c1.ProbOne(bs)-c2.ProbOne(bs)+ProbBothOne(bs, c1, c2))) > 1e-12 {
		t.Error("ProbConj(0,0) disagrees with 1 − P1 − P2 + P11")
	}
	one := ProbConj(bs, []CoinEvent{{c1, true}})
	if math.Abs(one-c1.ProbOne(bs)) > 1e-12 {
		t.Error("ProbConj single disagrees with ProbOne")
	}
	if ProbConj(bs, nil) != 1 {
		t.Error("empty conjunction != 1")
	}
}
