// Package prng provides a small deterministic pseudo-random number
// generator used for workload generation and randomized baselines.
//
// We deliberately do not use math/rand: its stream is not guaranteed to be
// stable across Go releases, and reproducible experiment tables require
// byte-identical workloads for a given seed. The generator is splitmix64
// (Steele, Lea, Flood 2014), which passes BigCrush and has a trivially
// portable implementation.
package prng

// Source is a deterministic 64-bit PRNG. The zero value is a valid
// generator seeded with 0.
type Source struct {
	state uint64
}

// New returns a Source seeded with the given value.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits (splitmix64).
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("prng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation is overkill here;
	// simple rejection sampling keeps the stream easy to reason about.
	bound := uint64(n)
	threshold := -bound % bound // 2^64 mod n
	for {
		v := s.Uint64()
		if v >= threshold {
			return int(v % bound)
		}
	}
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Shuffle pseudo-randomly permutes the first n elements using swap.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}
