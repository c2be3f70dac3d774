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
// batched marginal walk, the batched joint walk, and the incremental
// plane fold must not allocate — they run once per owned edge per seed
// bit on the phase hot path.
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
		for i := range reqs {
			sb.EdgePairBlock(&sheet, cu, reqs[i], out[i].P0, out[i].P1)
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

// TestFormSheetBlockMatchesScalar drives the phase loop's exact kernel
// sequence — seal a sheet of coin form groups, then per seed bit split,
// evaluate, fix, fold — and pins every block result bitwise against the
// scalar kernels on the same coins under the same basis.
func TestFormSheetBlockMatchesScalar(t *testing.T) {
	src := prng.New(777)
	for trial := 0; trial < 400; trial++ {
		m := 3 + src.Intn(3)
		fam := MustFamily(m, 2)
		d := fam.SeedBits()
		order := fam.Field().Order()

		// One "own" coin plus a few neighbor coins, as the phase loop
		// lays them out; thresholds sweep the boundary cases (0, ≥2^b).
		b := 1 + src.Intn(m)
		nNbr := 1 + src.Intn(4)
		xs := make([]uint64, 1+nNbr)
		for i := range xs {
			xs[i] = uint64(i+1+src.Intn(3)*7) & (order - 1)
			if xs[i] == 0 {
				xs[i] = 1
			}
		}
		coins := make([]Coin, len(xs))
		lanes := make([]int, len(xs))
		var sheet FormSheet
		for i, x := range xs {
			forms := fam.OutputForms(x, b)
			var err error
			coins[i], err = NewCoinFromForms(forms, src.Uint64()%5, 4)
			if err != nil {
				t.Fatal(err)
			}
			lane, ok := sheet.AddForms(forms)
			if !ok {
				t.Fatalf("trial %d: AddForms refused %d forms with %d free lanes", trial, len(forms), sheet.Free())
			}
			lanes[i] = lane
		}
		sheet.Seal()

		bc := func(i int) BlockCoin {
			return BlockCoin{Lane: lanes[i], B: coins[i].Bits(), T: coins[i].Threshold()}
		}

		bs := NewBasis()
		reqs := make([]BlockCoin, nNbr)
		out := make([]ProbPair, nNbr)
		for j := 0; j < d; j++ {
			sb, ok := bs.Split(j)
			if !ok {
				t.Fatalf("trial %d: Split(%d) refused on the phase basis", trial, j)
			}
			// Batched neighbor marginals vs the scalar walk.
			for i := 0; i < nNbr; i++ {
				reqs[i] = bc(1 + i)
			}
			sb.ProbOnePairBlock(&sheet, reqs, out)
			for i := 0; i < nNbr; i++ {
				w0, w1 := sb.ProbOnePair(coins[1+i])
				if out[i].P0 != w0 || out[i].P1 != w1 {
					t.Fatalf("trial %d bit %d nbr %d: ProbOnePairBlock (%v %v), scalar (%v %v)",
						trial, j, i, out[i].P0, out[i].P1, w0, w1)
				}
			}
			// Batched joint probabilities vs the scalar walk.
			for i := 0; i < nNbr; i++ {
				g1u0, g110, g1u1, g111 := sb.EdgePairBlock(&sheet, bc(0), bc(1+i), out[i].P0, out[i].P1)
				w1u0, _, w110, w1u1, _, w111 := sb.EdgePair(coins[0], coins[1+i])
				if g1u0 != w1u0 || g110 != w110 || g1u1 != w1u1 || g111 != w111 {
					t.Fatalf("trial %d bit %d nbr %d: EdgePairBlock (%v %v | %v %v), scalar (%v %v | %v %v)",
						trial, j, i, g1u0, g110, g1u1, g111, w1u0, w110, w1u1, w111)
				}
			}
			sb.Release()
			rj := src.Bool()
			if !bs.FixBit(j, rj) {
				t.Fatalf("trial %d: FixBit(%d) refused", trial, j)
			}
			sheet.Fix(j, rj)
		}
	}
}
