package gf2

import (
	"testing"

	"smallbandwidth/internal/prng"
)

// naiveTranspose64 is the bit-at-a-time reference for transpose64.
func naiveTranspose64(a *[64]uint64) [64]uint64 {
	var out [64]uint64
	for r := 0; r < 64; r++ {
		for c := 0; c < 64; c++ {
			if a[r]&(uint64(1)<<c) != 0 {
				out[c] |= uint64(1) << r
			}
		}
	}
	return out
}

func TestTranspose64MatchesNaive(t *testing.T) {
	src := prng.New(4242)
	for trial := 0; trial < 200; trial++ {
		var a [64]uint64
		for i := range a {
			a[i] = src.Uint64()
			if trial%3 == 0 {
				a[i] &= src.Uint64() // sparser patterns
			}
		}
		want := naiveTranspose64(&a)
		got := a
		transpose64(&got)
		if got != want {
			t.Fatalf("trial %d: transpose64 differs from naive reference", trial)
		}
		// An involution: transposing twice restores the matrix.
		back := got
		transpose64(&back)
		if back != a {
			t.Fatalf("trial %d: transpose64 is not an involution", trial)
		}
	}
}

// TestBlockKernelsAllocFree is the allocs/op regression guard on the
// bit-sliced kernels: with a sealed sheet and pooled split bases, the
// batched marginal walk, the owner walk, its per-edge replay, and the
// incremental plane fold must not allocate — they run once per node or
// per owned edge per seed bit on the phase hot path.
func TestBlockKernelsAllocFree(t *testing.T) {
	fam := MustFamily(12, 2)
	const b = 9
	var sheet FormSheet
	myForms := fam.OutputForms(5, b)
	myLane, ok := sheet.AddForms(myForms)
	if !ok {
		t.Fatal("AddForms refused")
	}
	myCoin, err := NewCoinFromForms(myForms, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	cu := BlockCoin{Lane: myLane, B: myCoin.Bits(), T: myCoin.Threshold()}
	var reqs [3]BlockCoin
	for i, x := range []uint64{9, 21, 33} {
		forms := fam.OutputForms(x, b)
		lane, ok := sheet.AddForms(forms)
		if !ok {
			t.Fatal("AddForms refused")
		}
		c, err := NewCoinFromForms(forms, uint64(2+i), 7)
		if err != nil {
			t.Fatal(err)
		}
		reqs[i] = BlockCoin{Lane: lane, B: c.Bits(), T: c.Threshold()}
	}
	sheet.Seal()
	basis := NewBasis()
	var out [3]ProbPair
	j := 0
	step := func() {
		sb, ok := basis.Split(j)
		if !ok {
			t.Fatal("split refused")
		}
		sb.ProbOnePairBlock(&sheet, reqs[:], out[:])
		ow := sb.WalkOwner(&sheet, cu)
		for i := range reqs {
			ow.Joint(&sheet, reqs[i], out[i])
		}
		sb.Release()
		basis.FixBit(j, j%2 == 0)
		sheet.Fix(j, j%2 == 0)
		j++
		if j == fam.SeedBits() {
			t.Fatal("ran out of free seed bits")
		}
	}
	if n := testing.AllocsPerRun(10, step); n > 0 {
		t.Fatalf("block kernel step allocates %v times per seed bit", n)
	}
}

// TestFormSheetBlockMatchesScalar drives the phase hub's exact kernel
// sequence on production-size coins — lay every coin out once, as the
// hub's lane table does (⌊64/b⌋ coins to a sheet in slot order, so an
// owner and its neighbor often sit on different sheets), then per seed
// bit split, fill every coin's marginal from its own lanes, walk the
// owner once, replay the walk for every edge against the neighbor's
// sheet, fix, and fold every sheet — and pins every block result
// bitwise against the two-word EdgePair walk on the same coins under
// the same basis. Field degrees reach 13 and list sizes 3..20, so
// thresholds k1·2^b/|L| are not multiples of large powers of two and
// the walks run long, as the hub's do at B = 8–13.
func TestFormSheetBlockMatchesScalar(t *testing.T) {
	src := prng.New(777)
	edges, cross := 0, 0
	for trial := 0; trial < 300; trial++ {
		m := 3 + src.Intn(11)
		fam := MustFamily(m, 2)
		d := fam.SeedBits()
		order := fam.Field().Order()
		b := m - src.Intn(3)
		if b < 1 || src.Intn(5) == 0 {
			b = 1 + src.Intn(m)
		}
		// Slot s's coin is lanes (s mod per)·b.. of sheet s/per. The owner
		// takes a random slot, its neighbors all the others.
		per := 64 / b
		n := 2 + src.Intn(20)
		coins := make([]Coin, n)
		at := make([]BlockCoin, n)
		sheets := make([]FormSheet, (n+per-1)/per)
		for s := range coins {
			forms := fam.OutputForms(src.Uint64()&(order-1), b)
			lists := 3 + src.Intn(18)
			c, err := NewCoinFromForms(forms, uint64(src.Intn(lists+1)), uint64(lists))
			if err != nil {
				t.Fatal(err)
			}
			lane, ok := sheets[s/per].AddForms(forms)
			if !ok || lane != s%per*b {
				t.Fatalf("trial %d: slot %d laid at lane %d (ok %v), want %d", trial, s, lane, ok, s%per*b)
			}
			coins[s] = c
			at[s] = BlockCoin{Lane: lane, B: b, T: c.Threshold()}
		}
		for k := range sheets {
			sheets[k].Seal()
		}
		owner := src.Intn(n)
		edges += n - 1
		for s := range coins {
			if s/per != owner/per {
				cross++
			}
		}

		bs := NewBasis()
		marg := make([]ProbPair, n)
		for j := 0; j < d; j++ {
			sb, ok := bs.Split(j)
			if !ok {
				t.Fatalf("trial %d: Split(%d) refused on the phase basis", trial, j)
			}
			for s := range coins {
				sb.ProbOnePairBlock(&sheets[s/per], at[s:s+1], marg[s:s+1])
			}
			ow := sb.WalkOwner(&sheets[owner/per], at[owner])
			if g := ow.Marginal(); g != marg[owner] {
				t.Fatalf("trial %d bit %d: owner walk marginal %v, ProbOnePairBlock %v", trial, j, g, marg[owner])
			}
			for s := range coins {
				if s == owner {
					continue
				}
				w1u0, w1v0, w110, w1u1, w1v1, w111 := sb.EdgePair(coins[owner], coins[s])
				if pv := marg[s]; pv.P0 != w1v0 || pv.P1 != w1v1 {
					t.Fatalf("trial %d bit %d slot %d: ProbOnePairBlock (%v %v), EdgePair (%v %v)",
						trial, j, s, pv.P0, pv.P1, w1v0, w1v1)
				}
				if g := ow.Marginal(); g.P0 != w1u0 || g.P1 != w1u1 {
					t.Fatalf("trial %d bit %d slot %d: owner marginal %v, EdgePair (%v %v)",
						trial, j, s, g, w1u0, w1u1)
				}
				if g := ow.Joint(&sheets[s/per], at[s], marg[s]); g.P0 != w110 || g.P1 != w111 {
					t.Fatalf("trial %d bit %d slot %d (sheet %d, owner's %d): Joint (%v %v), EdgePair (%v %v)",
						trial, j, s, s/per, owner/per, g.P0, g.P1, w110, w111)
				}
			}
			sb.Release()
			rj := src.Uint64()&1 == 1
			if !bs.FixBit(j, rj) {
				t.Fatalf("trial %d: FixBit(%d) refused", trial, j)
			}
			for k := range sheets {
				sheets[k].Fix(j, rj)
			}
		}
	}
	if cross*4 < edges {
		t.Errorf("only %d of %d edges read their neighbor from another sheet", cross, edges)
	}
}
