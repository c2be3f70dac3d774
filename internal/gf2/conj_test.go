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

// probConjRef is the clone-per-atom ProbConj walk the pooled walk
// replaced: every atom gets a fresh clone of the walk basis, and a
// negated event builds a flipped copy of the event slice. It is the
// bitwise oracle of TestProbConjMatchesRef. atoms, if not nil, counts
// the atoms by their AddResult.
func probConjRef(bs *Basis, events []CoinEvent, atoms *[Inconsistent + 1]int) float64 {
	if len(events) == 0 {
		return 1
	}
	ev, rest := events[0], events[1:]
	if !ev.Want {
		flipped := append([]CoinEvent{{Coin: ev.Coin, Want: true}}, rest...)
		p := probConjRef(bs, rest, atoms) - probConjRef(bs, flipped, atoms)
		if p < 0 {
			return 0
		}
		return p
	}
	c := ev.Coin
	if c.t == 0 {
		return 0
	}
	if c.t >= uint64(1)<<c.b {
		return probConjRef(bs, rest, atoms)
	}
	w := bs.Clone()
	prob := 0.0
	condProb := 1.0
	for idx, fo := range c.forms {
		bitPos := c.b - 1 - idx
		tj := c.t&(1<<bitPos) != 0
		if tj {
			w2 := w.Clone()
			res := w2.Add(fo, false)
			if atoms != nil {
				atoms[res]++
			}
			switch res {
			case Independent:
				prob += condProb * 0.5 * probConjRef(w2, rest, atoms)
			case Redundant:
				prob += condProb * probConjRef(w2, rest, atoms)
			case Inconsistent:
			}
		}
		switch w.Add(fo, tj) {
		case Independent:
			condProb *= 0.5
		case Redundant:
		case Inconsistent:
			return prob
		}
	}
	return prob
}

// randomConjCase draws 1–4 coins over windows of a few hash inputs, so
// that coins share forms, with mixed Want, and a basis of fixed bits
// and general rows: the atoms of the walk are then independent,
// redundant and inconsistent.
func randomConjCase(t *testing.T, src *prng.Source, fam *Family) (*Basis, []CoinEvent) {
	t.Helper()
	m, d := fam.Field().M(), fam.SeedBits()
	events := make([]CoinEvent, 1+src.Intn(4))
	for i := range events {
		x := src.Uint64() & 3
		lo := src.Intn(m - 1)
		width := 1 + src.Intn(m-lo)
		den := uint64(1 + src.Intn(7))
		num := uint64(src.Intn(int(den) + 1))
		coin, err := NewCoinFromForms(fam.WindowForms(x, lo, width), num, den)
		if err != nil {
			t.Fatal(err)
		}
		events[i] = CoinEvent{Coin: coin, Want: src.Uint64()&1 == 1}
	}
	bs := NewBasis()
	for i := 0; i < d; i++ {
		if src.Intn(4) == 0 {
			bs.FixBit(i, src.Uint64()&1 == 1)
		}
	}
	for r := src.Intn(3); r > 0; r-- {
		mask := src.Uint64() & (uint64(1)<<d - 1)
		bs.Add(Form{Mask: VecFromUint64(mask), Const: src.Uint64()&1 == 1}, src.Uint64()&1 == 1)
	}
	return bs, events
}

// TestProbConjMatchesRef requires the pooled walk to return exactly the
// clone-per-atom walk's bits on random event sets, and checks that the
// sets reach every kind of atom.
func TestProbConjMatchesRef(t *testing.T) {
	src := prng.New(77)
	var atoms [Inconsistent + 1]int
	for _, m := range []int{4, 5} {
		fam := MustFamily(m, 2)
		for trial := 0; trial < 2000; trial++ {
			bs, events := randomConjCase(t, src, fam)
			want := probConjRef(bs, events, &atoms)
			if got := ProbConj(bs, events); got != want {
				t.Fatalf("m=%d trial %d (%d events): ProbConj %v, reference %v", m, trial, len(events), got, want)
			}
		}
	}
	for _, res := range []AddResult{Independent, Redundant, Inconsistent} {
		if atoms[res] == 0 {
			t.Errorf("no atom classified %v: the cases do not cover the walk", res)
		}
	}
}

// TestProbConjAllocFree: with the basis pool warm, a four-coin
// conjunction with negated events allocates nothing.
func TestProbConjAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops cached objects under -race; allocation counts are meaningless")
	}
	fam := MustFamily(12, 2)
	var events []CoinEvent
	for i, x := range []uint64{5, 9, 5, 9} {
		coin, err := NewCoinFromForms(fam.WindowForms(x, 3*(i/2), 3), uint64(2+i), 7)
		if err != nil {
			t.Fatal(err)
		}
		events = append(events, CoinEvent{Coin: coin, Want: i%3 != 0})
	}
	bs := NewBasis()
	bs.FixBit(0, true)
	bs.FixBit(5, false)
	bs.Add(Form{Mask: UnitVec(1).Xor(UnitVec(7))}, true)
	if n := testing.AllocsPerRun(100, func() { ProbConj(bs, events) }); n != 0 {
		t.Fatalf("ProbConj allocates %v per call", n)
	}
}
