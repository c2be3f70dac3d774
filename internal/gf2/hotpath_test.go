package gf2

import (
	"testing"

	"smallbandwidth/internal/prng"
)

// TestReduceEquivalence pins the three reduction paths against each
// other on random products of reduced operands: the historical full
// scan from degree 127, the tightened scan from degree 2m−2 (products
// of reduced operands never exceed that), and the table-driven byte
// fold used by Mul.
func TestReduceEquivalence(t *testing.T) {
	src := prng.New(42)
	for _, m := range []int{1, 2, 3, 7, 8, 11, 16, 24, 31, 32, 33, 47, 48, 63} {
		f := MustField(m)
		for trial := 0; trial < 500; trial++ {
			a := src.Uint64() & f.max
			b := src.Uint64() & f.max
			hi, lo := clmul(a, b)
			full := f.reduceScan(hi, lo, 127)
			tight := f.reduceScan(hi, lo, 2*m-2)
			table := f.reduce(hi, lo)
			if full != tight {
				t.Fatalf("m=%d a=%#x b=%#x: scan from 127 gives %#x, from 2m-2 gives %#x",
					m, a, b, full, tight)
			}
			if full != table {
				t.Fatalf("m=%d a=%#x b=%#x: scan gives %#x, fold table gives %#x",
					m, a, b, full, table)
			}
			if ref := polyMulMod(a, b, f.g, m); ref != table {
				t.Fatalf("m=%d a=%#x b=%#x: polyMulMod gives %#x, Mul path gives %#x",
					m, a, b, ref, table)
			}
		}
	}
}

// TestClmulMatchesBitSerial pins the windowed carry-less multiply
// against the bit-serial reference.
func TestClmulMatchesBitSerial(t *testing.T) {
	src := prng.New(7)
	check := func(a, b uint64) {
		h1, l1 := clmul(a, b)
		h2, l2 := clmulBitSerial(a, b)
		if h1 != h2 || l1 != l2 {
			t.Fatalf("clmul(%#x,%#x) = (%#x,%#x), bit-serial gives (%#x,%#x)", a, b, h1, l1, h2, l2)
		}
	}
	check(0, 0)
	check(^uint64(0), ^uint64(0))
	check(1<<63, 1<<63)
	for trial := 0; trial < 2000; trial++ {
		check(src.Uint64(), src.Uint64())
	}
}

// TestOutputFormsIntoReuse: the Into variant must reuse caller storage
// and agree with the allocating path.
func TestOutputFormsIntoReuse(t *testing.T) {
	fam := MustFamily(9, 2)
	var buf []Form
	for x := uint64(0); x < 40; x++ {
		want := fam.OutputForms(x, 7)
		buf = fam.OutputFormsInto(x, 7, buf)
		if len(buf) != len(want) {
			t.Fatalf("x=%d: Into returned %d forms, want %d", x, len(buf), len(want))
		}
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("x=%d form %d: Into %v, want %v", x, i, buf[i], want[i])
			}
		}
	}
	if n := testing.AllocsPerRun(200, func() {
		buf = fam.OutputFormsInto(3, 7, buf)
	}); n != 0 {
		t.Fatalf("OutputFormsInto allocates %v per call with warm storage", n)
	}
}

// TestBasisMixedRepresentation pins the compressed fixed-bit
// representation against a naive rows-only echelon reference on random
// mixed sequences of unit and general constraints: every AddResult
// classification and every ProbLess/ProbBothLess value must agree.
func TestBasisMixedRepresentation(t *testing.T) {
	src := prng.New(1234)
	for trial := 0; trial < 400; trial++ {
		m := 3 + src.Intn(3)
		fam := MustFamily(m, 2)
		d := fam.SeedBits()
		bs := NewBasis()
		ref := newNaiveBasis()
		for step := 0; step < d+4; step++ {
			var fo Form
			if src.Intn(2) == 0 {
				fo = Form{Mask: UnitVec(src.Intn(d))}
			} else {
				fo = Form{Mask: VecFromUint64(src.Uint64() & (uint64(1)<<d - 1)), Const: src.Uint64()&1 == 1}
			}
			val := src.Uint64()&1 == 1
			want := ref.add(fo, val)
			got := bs.Add(fo, val)
			if want == Inconsistent {
				// The reference rejects; Basis must agree and stay usable.
				if got != Inconsistent {
					t.Fatalf("trial %d step %d: Basis %v, naive Inconsistent", trial, step, got)
				}
				continue
			}
			if got != want {
				t.Fatalf("trial %d step %d: Basis %v, naive %v", trial, step, got, want)
			}
			if bs.Rank() != ref.rank() {
				t.Fatalf("trial %d step %d: rank %d vs naive %d", trial, step, bs.Rank(), ref.rank())
			}
		}
		x := src.Uint64() & (fam.Field().Order() - 1)
		b := 1 + src.Intn(m)
		forms := fam.OutputForms(x, b)
		thr := src.Uint64() % (1<<uint(b) + 1)
		got := ProbLess(bs, forms, thr)
		want := ref.probLess(forms, thr)
		if got != want {
			t.Fatalf("trial %d: ProbLess %v vs naive %v", trial, got, want)
		}
	}
}

// naiveBasis is the pre-optimization representation — one echelon row
// per constraint, no fixed-bit compression — kept verbatim as the
// differential reference for Basis.
type naiveBasis struct {
	rows []basisRow
}

func newNaiveBasis() *naiveBasis { return &naiveBasis{} }

func (nb *naiveBasis) rank() int { return len(nb.rows) }

func (nb *naiveBasis) reduce(mask Vec128, rhs bool) (Vec128, bool) {
	for i := range nb.rows {
		r := &nb.rows[i]
		if mask.Bit(r.pivot) {
			mask = mask.Xor(r.mask)
			rhs = rhs != r.rhs
		}
	}
	return mask, rhs
}

func (nb *naiveBasis) add(fo Form, val bool) AddResult {
	mask, rhs := nb.reduce(fo.Mask, val != fo.Const)
	if mask.IsZero() {
		if rhs {
			return Inconsistent
		}
		return Redundant
	}
	nb.rows = append(nb.rows, basisRow{mask: mask, rhs: rhs, pivot: mask.LowestBit()})
	return Independent
}

func (nb *naiveBasis) clone() *naiveBasis {
	rows := make([]basisRow, len(nb.rows))
	copy(rows, nb.rows)
	return &naiveBasis{rows: rows}
}

func (nb *naiveBasis) probLess(forms []Form, t uint64) float64 {
	b := len(forms)
	if t == 0 {
		return 0
	}
	if t >= uint64(1)<<b {
		return 1
	}
	w := nb.clone()
	prob := 0.0
	condProb := 1.0
	for idx, fo := range forms {
		bitPos := b - 1 - idx
		tj := t&(1<<bitPos) != 0
		if tj {
			mask, rhs := w.reduce(fo.Mask, fo.Const)
			if mask.IsZero() {
				if !rhs {
					prob += condProb
				}
			} else {
				prob += condProb * 0.5
			}
		}
		switch w.add(fo, tj) {
		case Independent:
			condProb *= 0.5
		case Redundant:
		case Inconsistent:
			return prob
		}
	}
	return prob
}

// TestSplitMatchesFixedBit: Split + the pair queries must reproduce the
// two-pass Clone+FixBit evaluation bit for bit, across random bases,
// coins, and split bits — including the fused EdgePair form.
func TestSplitMatchesFixedBit(t *testing.T) {
	src := prng.New(99)
	for trial := 0; trial < 600; trial++ {
		m := 3 + src.Intn(3)
		if trial%5 == 0 {
			// Seed length 2m > 64: forms carry high-word masks, driving
			// the generic two-word SplitBasis arm instead of the lo paths.
			m = 33 + src.Intn(4)
		}
		fam := MustFamily(m, 2)
		d := fam.SeedBits()
		order := fam.Field().Order()
		bs := NewBasis()
		for i := 0; i < d; i++ {
			if src.Intn(3) == 0 {
				bs.FixBit(i, src.Uint64()&1 == 1)
			}
		}
		var free []int
		for i := 0; i < d; i++ {
			if v := UnitVec(i); bs.fixedMask.And(v).IsZero() {
				free = append(free, i)
			}
		}
		if len(free) == 0 {
			continue
		}
		bit := free[src.Intn(len(free))]

		b := 1 + src.Intn(m)
		x1 := src.Uint64() & (order - 1)
		x2 := (x1 + 1 + src.Uint64()%(order-1)) & (order - 1)
		c1, err := NewCoin(fam, x1, b, src.Uint64()%5, 4)
		if err != nil {
			t.Fatal(err)
		}
		c2, err := NewCoin(fam, x2, b, src.Uint64()%5, 4)
		if err != nil {
			t.Fatal(err)
		}

		// Reference: two separate conditioned bases.
		var want [2][3]float64 // per branch: p1u, p1v, p11
		for beta := 0; beta < 2; beta++ {
			w := bs.Clone()
			if !w.FixBit(bit, beta == 1) {
				t.Fatalf("trial %d: free bit %d re-fix failed", trial, bit)
			}
			want[beta][0] = c1.ProbOne(w)
			want[beta][1] = c2.ProbOne(w)
			want[beta][2] = ProbBothOne(w, c1, c2)
		}

		sb, ok := bs.Split(bit)
		if !ok {
			t.Fatalf("trial %d: Split(%d) refused on a free bit", trial, bit)
		}
		p1u0, p1v0, p110, p1u1, p1v1, p111 := sb.EdgePair(c1, c2)
		if p1u0 != want[0][0] || p1v0 != want[0][1] || p110 != want[0][2] ||
			p1u1 != want[1][0] || p1v1 != want[1][1] || p111 != want[1][2] {
			t.Fatalf("trial %d (bit %d): EdgePair (%v %v %v | %v %v %v), want (%v %v %v | %v %v %v)",
				trial, bit, p1u0, p1v0, p110, p1u1, p1v1, p111,
				want[0][0], want[0][1], want[0][2], want[1][0], want[1][1], want[1][2])
		}
		sb.Release()
	}
}

// TestSplitRefusesTouchedBit: Split must refuse a bit the basis already
// fixes, and any basis holding an echelon row.
func TestSplitRefusesTouchedBit(t *testing.T) {
	bs := NewBasis()
	bs.FixBit(3, true)
	if _, ok := bs.Split(3); ok {
		t.Fatal("Split accepted an already-fixed bit")
	}
	if sb, ok := bs.Split(7); !ok {
		t.Fatal("Split refused an untouched bit")
	} else {
		sb.Release()
	}
	bs2 := NewBasis()
	bs2.Add(Form{Mask: UnitVec(1).Xor(UnitVec(5))}, true)
	if _, ok := bs2.Split(7); ok {
		t.Fatal("Split accepted a basis with an echelon row")
	}
}

// TestProbOneAndBothOneMatchesSeparate pins the single-basis fused walk
// against the separate queries.
func TestProbOneAndBothOneMatchesSeparate(t *testing.T) {
	src := prng.New(5)
	for trial := 0; trial < 400; trial++ {
		m := 3 + src.Intn(3)
		fam := MustFamily(m, 2)
		d := fam.SeedBits()
		order := fam.Field().Order()
		bs := NewBasis()
		for i := 0; i < d; i++ {
			if src.Intn(3) == 0 {
				bs.FixBit(i, src.Uint64()&1 == 1)
			}
		}
		b := 1 + src.Intn(m)
		x1 := src.Uint64() & (order - 1)
		x2 := (x1 + 1) & (order - 1)
		c1, _ := NewCoin(fam, x1, b, src.Uint64()%7, 6)
		c2, _ := NewCoin(fam, x2, b, src.Uint64()%7, 6)
		p1, p11 := ProbOneAndBothOne(bs, c1, c2)
		if want := c1.ProbOne(bs); p1 != want {
			t.Fatalf("trial %d: marginal %v, want %v", trial, p1, want)
		}
		if want := ProbBothOne(bs, c1, c2); p11 != want {
			t.Fatalf("trial %d: joint %v, want %v", trial, p11, want)
		}
	}
}
