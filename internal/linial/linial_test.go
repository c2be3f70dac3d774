package linial

import (
	"testing"

	"smallbandwidth/internal/graph"
)

func TestPrimes(t *testing.T) {
	primes := []uint64{2, 3, 5, 7, 11, 13, 97, 101}
	for _, p := range primes {
		if !isPrime(p) {
			t.Errorf("%d reported composite", p)
		}
	}
	for _, c := range []uint64{0, 1, 4, 9, 91, 100} {
		if isPrime(c) {
			t.Errorf("%d reported prime", c)
		}
	}
	if nextPrime(14) != 17 || nextPrime(17) != 17 {
		t.Error("nextPrime wrong")
	}
}

func TestDigitsAndEval(t *testing.T) {
	// x = 23, q = 5, t = 2: digits 3,4,0 → f(z) = 3 + 4z.
	d := Digits(23, 5, 2)
	want := []uint64{3, 4, 0}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("Digits(23,5,2) = %v", d)
		}
	}
	if EvalPoly(d, 0, 5) != 3 {
		t.Error("f(0) != 3")
	}
	if EvalPoly(d, 2, 5) != (3+8)%5 {
		t.Error("f(2) wrong")
	}
}

func TestScheduleShrinks(t *testing.T) {
	for _, c := range []struct {
		k      uint64
		maxDeg int
	}{
		{1 << 20, 4}, {1 << 30, 8}, {1000, 3}, {100000, 16}, {1 << 16, 2},
	} {
		steps := Schedule(c.k, c.maxDeg)
		k := c.k
		for i, st := range steps {
			if st.NewK >= k {
				t.Errorf("k=%d Δ=%d: step %d does not shrink (%d → %d)", c.k, c.maxDeg, i, k, st.NewK)
			}
			if st.Q <= uint64(c.maxDeg)*st.T {
				t.Errorf("step %d violates q > Δ·t: q=%d t=%d", i, st.Q, st.T)
			}
			k = st.NewK
		}
		if len(steps) > 10 {
			t.Errorf("k=%d Δ=%d: schedule too long (%d steps), log* should be tiny", c.k, c.maxDeg, len(steps))
		}
		// Final color space should be O(Δ² polylog Δ): generous cap 64·Δ²+64.
		cap := uint64(64*c.maxDeg*c.maxDeg + 64)
		if k > cap {
			t.Errorf("k=%d Δ=%d: final K = %d exceeds %d", c.k, c.maxDeg, k, cap)
		}
	}
}

func TestScheduleEmptyWhenAlreadySmall(t *testing.T) {
	if steps := Schedule(2, 5); len(steps) != 0 {
		t.Errorf("K=2 should have empty schedule, got %d steps", len(steps))
	}
}

func TestNextColorProperOnGraphs(t *testing.T) {
	graphs := []*graph.Graph{
		graph.Cycle(31), graph.Path(40), graph.Grid2D(6, 7),
		graph.MustRandomRegular(50, 4, 2), graph.Star(20),
		graph.Complete(8), graph.GNP(40, 0.15, 9),
	}
	for gi, g := range graphs {
		colors, k, err := ColorGraph(adjOf(g), g.MaxDegree())
		if err != nil {
			t.Fatalf("graph %d: %v", gi, err)
		}
		for v := 0; v < g.N(); v++ {
			if colors[v] >= k {
				t.Fatalf("graph %d: color %d outside [0,%d)", gi, colors[v], k)
			}
		}
		u32 := make([]uint32, len(colors))
		for i, c := range colors {
			u32[i] = uint32(c)
		}
		if !g.IsProperColoring(u32) {
			t.Fatalf("graph %d: final Linial coloring improper", gi)
		}
		// K must be O(Δ²)-ish.
		d := g.MaxDegree()
		if k > uint64(64*d*d+64) {
			t.Errorf("graph %d: K = %d too large for Δ = %d", gi, k, d)
		}
	}
}

func TestNextColorDetectsImproperInput(t *testing.T) {
	st := Step{Q: 5, T: 1, NewK: 25}
	if _, err := NextColor(7, []uint64{7}, st); err == nil {
		t.Error("monochromatic neighbor not detected")
	}
}

func TestNextColorStepProper(t *testing.T) {
	// Exhaustive small case: all pairs of distinct colors remain distinct
	// after a joint step whenever they are "adjacent".
	st := Step{Q: 7, T: 1, NewK: 49}
	for a := uint64(0); a < 40; a++ {
		for b := uint64(0); b < 40; b++ {
			if a == b {
				continue
			}
			ca, err := NextColor(a, []uint64{b}, st)
			if err != nil {
				t.Fatalf("NextColor(%d|%d): %v", a, b, err)
			}
			cb, err := NextColor(b, []uint64{a}, st)
			if err != nil {
				t.Fatalf("NextColor(%d|%d): %v", b, a, err)
			}
			if ca == cb {
				t.Fatalf("colors %d,%d map to same new color %d", a, b, ca)
			}
			if ca >= st.NewK || cb >= st.NewK {
				t.Fatalf("new color out of range")
			}
		}
	}
}

func adjOf(g *graph.Graph) [][]int32 {
	adj := make([][]int32, g.N())
	for v := 0; v < g.N(); v++ {
		adj[v] = g.Neighbors(v)
	}
	return adj
}
