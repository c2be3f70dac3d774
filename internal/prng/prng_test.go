package prng

import (
	"testing"
)

func TestDeterministic(t *testing.T) {
	a, b := New(12345), New(12345)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverge at step %d", i)
		}
	}
}

func TestKnownValues(t *testing.T) {
	// splitmix64 reference values (seed 0), from the public-domain
	// reference implementation by Sebastiano Vigna.
	s := New(0)
	want := []uint64{
		0xe220a8397b1dcdaf, 0x6e789e6aa1b965f4, 0x06c45d188009454f,
	}
	for i, w := range want {
		if got := s.Uint64(); got != w {
			t.Fatalf("value %d = %#x, want %#x", i, got, w)
		}
	}
}

func TestIntnRange(t *testing.T) {
	s := New(7)
	for _, n := range []int{1, 2, 3, 10, 1000} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("Intn(0) did not panic")
		}
	}()
	s.Intn(0)
}

func TestFloat64Range(t *testing.T) {
	s := New(99)
	for i := 0; i < 10000; i++ {
		f := s.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	s := New(4)
	a := []int{1, 2, 3, 4, 5, 6, 7}
	sum := 0
	for _, v := range a {
		sum += v
	}
	s.Shuffle(len(a), func(i, j int) { a[i], a[j] = a[j], a[i] })
	got := 0
	for _, v := range a {
		got += v
	}
	if got != sum {
		t.Errorf("shuffle changed multiset: sum %d != %d", got, sum)
	}
}

func TestUniformityRough(t *testing.T) {
	// Coarse sanity check, not a statistical suite: each of 8 buckets of
	// Intn(8) should get 12.5% ± 2% over 80k draws.
	s := New(2024)
	const draws = 80000
	var buckets [8]int
	for i := 0; i < draws; i++ {
		buckets[s.Intn(8)]++
	}
	for b, c := range buckets {
		frac := float64(c) / draws
		if frac < 0.105 || frac > 0.145 {
			t.Errorf("bucket %d frequency %v suspicious", b, frac)
		}
	}
}
