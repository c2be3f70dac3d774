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
// sequence on production-size coins — lay an owner and its neighbors
// out on sheets as buildSheets does (every sheet headed by the owner's
// group, so larger owners spill onto a second sheet), then per seed bit
// split, fill the neighbors' marginals, walk the owner once, replay the
// walk for every edge, fix, and fold — and pins every block result
// bitwise against the two-word EdgePair walk on the same coins under
// the same basis. Field degrees reach 13 and list sizes 3..20, so
// thresholds k1·2^b/|L| are not multiples of large powers of two and
// the walks run long, as the hub's do at B = 8–13.
func TestFormSheetBlockMatchesScalar(t *testing.T) {
	src := prng.New(777)
	spilled := 0
	for trial := 0; trial < 300; trial++ {
		m := 3 + src.Intn(11)
		fam := MustFamily(m, 2)
		d := fam.SeedBits()
		order := fam.Field().Order()
		b := m - src.Intn(3)
		if b < 1 || src.Intn(5) == 0 {
			b = 1 + src.Intn(m)
		}
		coin := func(x uint64) (Coin, []Form) {
			forms := fam.OutputForms(x, b)
			lists := 3 + src.Intn(18)
			c, err := NewCoinFromForms(forms, uint64(src.Intn(lists+1)), uint64(lists))
			if err != nil {
				t.Fatal(err)
			}
			return c, forms
		}
		own, ownForms := coin(src.Uint64() & (order - 1))
		nNbr := 1 + src.Intn(12)
		nbrs := make([]Coin, nNbr)
		var sheets []*FormSheet
		ownOn := make([]BlockCoin, 0, 2) // the owner's group on each sheet
		sheetOf := make([]int, nNbr)
		cvs := make([]BlockCoin, nNbr)
		for i := range nbrs {
			var forms []Form
			nbrs[i], forms = coin(src.Uint64() & (order - 1))
			if len(sheets) == 0 || sheets[len(sheets)-1].Free() < len(forms) {
				sh := new(FormSheet)
				lane, ok := sh.AddForms(ownForms)
				if !ok {
					t.Fatal("AddForms refused the owner on a fresh sheet")
				}
				sheets = append(sheets, sh)
				ownOn = append(ownOn, BlockCoin{Lane: lane, B: own.Bits(), T: own.Threshold()})
			}
			sh := sheets[len(sheets)-1]
			lane, ok := sh.AddForms(forms)
			if !ok {
				t.Fatalf("trial %d: AddForms refused %d forms with %d free lanes", trial, len(forms), sh.Free())
			}
			sheetOf[i] = len(sheets) - 1
			cvs[i] = BlockCoin{Lane: lane, B: nbrs[i].Bits(), T: nbrs[i].Threshold()}
		}
		if len(sheets) > 1 {
			spilled++
		}
		for _, sh := range sheets {
			sh.Seal()
		}

		bs := NewBasis()
		var pv, pu [1]ProbPair
		for j := 0; j < d; j++ {
			sb, ok := bs.Split(j)
			if !ok {
				t.Fatalf("trial %d: Split(%d) refused on the phase basis", trial, j)
			}
			// The owner's walk reads sheet 0, whatever sheet its edge is on.
			ow := sb.WalkOwner(sheets[0], ownOn[0])
			for i := range nbrs {
				sh := sheets[sheetOf[i]]
				w1u0, w1v0, w110, w1u1, w1v1, w111 := sb.EdgePair(own, nbrs[i])
				sb.ProbOnePairBlock(sh, []BlockCoin{cvs[i]}, pv[:])
				if pv[0].P0 != w1v0 || pv[0].P1 != w1v1 {
					t.Fatalf("trial %d bit %d nbr %d: ProbOnePairBlock (%v %v), EdgePair (%v %v)",
						trial, j, i, pv[0].P0, pv[0].P1, w1v0, w1v1)
				}
				sb.ProbOnePairBlock(sh, []BlockCoin{ownOn[sheetOf[i]]}, pu[:])
				if g := ow.Marginal(); g.P0 != w1u0 || g.P1 != w1u1 || pu[0] != g {
					t.Fatalf("trial %d bit %d nbr %d: owner marginal %v, on the edge's sheet %v, EdgePair (%v %v)",
						trial, j, i, g, pu[0], w1u0, w1u1)
				}
				if g := ow.Joint(sh, cvs[i], pv[0]); g.P0 != w110 || g.P1 != w111 {
					t.Fatalf("trial %d bit %d nbr %d (sheet %d): Joint (%v %v), EdgePair (%v %v)",
						trial, j, i, sheetOf[i], g.P0, g.P1, w110, w111)
				}
			}
			sb.Release()
			rj := src.Uint64()&1 == 1
			if !bs.FixBit(j, rj) {
				t.Fatalf("trial %d: FixBit(%d) refused", trial, j)
			}
			for _, sh := range sheets {
				sh.Fix(j, rj)
			}
		}
	}
	if spilled < 30 {
		t.Errorf("only %d of 300 owners spanned two sheets", spilled)
	}
}
