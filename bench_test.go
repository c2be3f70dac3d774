// Benchmarks regenerating the paper's quantitative claims, one per
// experiment of DESIGN.md §4 (the paper is theory-only, so each
// theorem/lemma is an "experiment"; cmd/benchtables prints the full
// tables). Reported custom metrics carry the model quantities the paper
// bounds — rounds, colored fractions, seed bits, memory high-water —
// while ns/op measures simulator wall time.
package smallbandwidth

import (
	"fmt"
	"testing"

	"smallbandwidth/internal/baseline"
	"smallbandwidth/internal/core"
	"smallbandwidth/internal/enginebench"
	"smallbandwidth/internal/gf2"
	"smallbandwidth/internal/mpc"
	"smallbandwidth/internal/netdecomp"
	"smallbandwidth/internal/prng"
)

// BenchmarkE1TheoremOneOne measures Theorem 1.1 rounds across a size
// sweep on cycles (D = n/2) and 4-regular graphs (D = O(log n)).
func BenchmarkE1TheoremOneOne(b *testing.B) {
	for _, n := range []int{16, 32, 64} {
		for _, kind := range []string{"cycle", "regular4"} {
			g := Cycle(n)
			if kind == "regular4" {
				g = RandomRegular(n, 4, 1)
			}
			inst := DeltaPlusOne(g)
			b.Run(fmt.Sprintf("%s/n=%d", kind, n), func(b *testing.B) {
				var rounds int
				for i := 0; i < b.N; i++ {
					res, err := ColorCONGEST(inst)
					if err != nil {
						b.Fatal(err)
					}
					rounds = res.Stats.Rounds
				}
				b.ReportMetric(float64(rounds), "rounds")
				b.ReportMetric(float64(g.Diameter()), "diameter")
			})
		}
	}
}

// BenchmarkE2PartialFraction measures the worst per-iteration colored
// fraction (Lemma 2.1 guarantees ≥ 1/8).
func BenchmarkE2PartialFraction(b *testing.B) {
	g := RandomRegular(48, 4, 2)
	inst := DeltaPlusOne(g)
	var minFrac float64
	for i := 0; i < b.N; i++ {
		res, err := ColorCONGEST(inst)
		if err != nil {
			b.Fatal(err)
		}
		minFrac = 1
		for it := 0; it < res.Iterations; it++ {
			if f := float64(res.Colored[it]) / float64(res.AliveAt[it]); f < minFrac {
				minFrac = f
			}
		}
	}
	b.ReportMetric(minFrac, "minColoredFrac")
	b.ReportMetric(0.125, "guarantee")
}

// BenchmarkE3Potential measures the worst per-phase potential growth
// against the n/⌈logC⌉ budget of Lemma 2.6.
func BenchmarkE3Potential(b *testing.B) {
	g := Torus2D(6, 6)
	inst := DeltaPlusOne(g)
	var worstRatio float64
	for i := 0; i < b.N; i++ {
		res, err := ColorCONGEST(inst, CONGESTOptions{TrackPotentials: true})
		if err != nil {
			b.Fatal(err)
		}
		worstRatio = 0
		for it := 0; it < res.Iterations; it++ {
			budget := float64(res.AliveAt[it]) / float64(res.Params.LogC)
			prev := res.PotentialStart[it]
			for l := 0; l < res.Params.LogC; l++ {
				if r := (res.PotentialPhase[it][l] - prev) / budget; r > worstRatio {
					worstRatio = r
				}
				prev = res.PotentialPhase[it][l]
			}
		}
	}
	b.ReportMetric(worstRatio, "growth/budget")
}

// BenchmarkE4SeedLength reports the seed length over an n sweep at fixed
// degree (the paper: independent of n up to K = O(Δ²)).
func BenchmarkE4SeedLength(b *testing.B) {
	for _, n := range []int{32, 128, 512} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			inst := DeltaPlusOne(Cycle(n))
			var d int
			for i := 0; i < b.N; i++ {
				p, err := core.ComputeParams(inst, core.Options{})
				if err != nil {
					b.Fatal(err)
				}
				d = p.D
			}
			b.ReportMetric(float64(d), "seedBits")
		})
	}
}

// BenchmarkE5Decomposition measures the Corollary 1.2 pipeline on
// high-diameter cycles and reports decomposition quality.
func BenchmarkE5Decomposition(b *testing.B) {
	for _, n := range []int{32, 64, 128} {
		b.Run(fmt.Sprintf("cycle/n=%d", n), func(b *testing.B) {
			inst := DeltaPlusOne(Cycle(n))
			var res *netdecomp.DecompResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = ColorDecomposed(inst)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.ChargedRounds), "chargedRounds")
			b.ReportMetric(float64(res.Decomp.Colors), "alpha")
			b.ReportMetric(float64(res.Decomp.Beta), "beta")
			b.ReportMetric(float64(res.Decomp.Congestion), "kappa")
		})
	}
}

// BenchmarkE6Clique measures Theorem 1.3 rounds.
func BenchmarkE6Clique(b *testing.B) {
	for _, cfg := range []struct{ n, d int }{{24, 6}, {48, 8}} {
		b.Run(fmt.Sprintf("n=%d/d=%d", cfg.n, cfg.d), func(b *testing.B) {
			inst := DeltaPlusOne(RandomRegular(cfg.n, cfg.d, 3))
			var rounds, batch int
			for i := 0; i < b.N; i++ {
				res, err := ColorClique(inst)
				if err != nil {
					b.Fatal(err)
				}
				rounds, batch = res.Stats.Rounds, res.MaxBatch
			}
			b.ReportMetric(float64(rounds), "rounds")
			b.ReportMetric(float64(batch), "maxBatch")
		})
	}
}

// BenchmarkE7MPCLinear measures Theorem 1.4.
func BenchmarkE7MPCLinear(b *testing.B) {
	benchMPC(b, false)
}

// BenchmarkE8MPCSublinear measures Theorem 1.5.
func BenchmarkE8MPCSublinear(b *testing.B) {
	benchMPC(b, true)
}

func benchMPC(b *testing.B, sublinear bool) {
	for _, n := range []int{32, 64, 128} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			inst := DeltaPlusOne(RandomRegular(n, 4, 5))
			var res *MPCResult
			for i := 0; i < b.N; i++ {
				var err error
				res, err = ColorMPC(inst, MPCOptions{Sublinear: sublinear})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Rounds), "rounds")
			b.ReportMetric(float64(res.HighWaterMemory), "memHW")
			b.ReportMetric(float64(res.S), "S")
		})
	}
}

// BenchmarkE9Bandwidth audits message width across a Theorem 1.1 run.
func BenchmarkE9Bandwidth(b *testing.B) {
	inst := DeltaPlusOne(Grid2D(6, 6))
	var maxWords int
	var messages int64
	for i := 0; i < b.N; i++ {
		res, err := ColorCONGEST(inst)
		if err != nil {
			b.Fatal(err)
		}
		maxWords, messages = res.Stats.MaxMessageWords, res.Stats.Messages
	}
	b.ReportMetric(float64(maxWords), "maxMsgWords")
	b.ReportMetric(float64(messages), "messages")
}

// BenchmarkE10Baseline compares Theorem 1.1 with the randomized [Joh99]
// baseline on the same instance.
func BenchmarkE10Baseline(b *testing.B) {
	inst := DeltaPlusOne(RandomRegular(48, 4, 8))
	b.Run("deterministic", func(b *testing.B) {
		var rounds int
		for i := 0; i < b.N; i++ {
			res, err := ColorCONGEST(inst)
			if err != nil {
				b.Fatal(err)
			}
			rounds = res.Stats.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
	b.Run("randomized", func(b *testing.B) {
		var rounds int
		for i := 0; i < b.N; i++ {
			res, err := baseline.RandomizedCONGEST(inst, uint64(i))
			if err != nil {
				b.Fatal(err)
			}
			rounds = res.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
}

// BenchmarkE11MPCTools measures the Section 5 tools' round counts.
func BenchmarkE11MPCTools(b *testing.B) {
	for _, n := range []int{500, 2000} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			var sortRounds int
			for i := 0; i < b.N; i++ {
				s := 40 * isqrtBench(n)
				rt, err := mpc.NewRuntime(6*n/s+2, s)
				if err != nil {
					b.Fatal(err)
				}
				recs := make([]mpc.Rec, n)
				for j := range recs {
					recs[j] = mpc.Rec{uint64(j * 7919 % 997), uint64(j), 1}
				}
				d, err := mpc.NewDist(rt, recs)
				if err != nil {
					b.Fatal(err)
				}
				if err := d.Sort(rt); err != nil {
					b.Fatal(err)
				}
				sortRounds = rt.Rounds
			}
			b.ReportMetric(float64(sortRounds), "sortRounds")
		})
	}
}

// BenchmarkE12ZeroRound Monte-Carlos the zero-round uniform process of
// Lemma 2.2 and reports mean potential change.
func BenchmarkE12ZeroRound(b *testing.B) {
	inst := DeltaPlusOne(RandomRegular(32, 4, 6))
	base, err := core.NewPrefixState(inst)
	if err != nil {
		b.Fatal(err)
	}
	before := base.Potential()
	var mean float64
	for i := 0; i < b.N; i++ {
		sum := 0.0
		const trials = 50
		for t := 0; t < trials; t++ {
			st, _ := core.NewPrefixState(inst)
			if err := st.StepUniform(prng.New(uint64(t))); err != nil {
				b.Fatal(err)
			}
			sum += st.Potential()
		}
		mean = sum / trials
	}
	b.ReportMetric(before, "phi0")
	b.ReportMetric(mean, "meanPhi1")
}

// ---------------------------------------------------------------------
// Engine benchmarks: raw CONGEST-simulator throughput on large graphs.
// These exercise the round engine (barrier, delivery, buffer reuse)
// rather than a theorem's bound. The workloads are defined once in
// internal/enginebench and shared with cmd/benchtables -engine, which
// records them in BENCH_congest.json so the perf trajectory is tracked
// across PRs.
// ---------------------------------------------------------------------

// BenchmarkEngineColorLarge runs one full partial-coloring iteration of
// Theorem 1.1 (MaxIterations=1, Lemma 2.1) on 10⁵-node graphs: the
// hottest realistic workload for the simulator. rounds and messages are
// reported so regressions in measured cost (not just wall clock) are
// visible.
func BenchmarkEngineColorLarge(b *testing.B) {
	for _, kind := range enginebench.Kinds {
		for _, n := range []int{10000, 100000} {
			kind, n := kind, n
			b.Run(fmt.Sprintf("%s/n=%d", kind, n), func(b *testing.B) {
				// Built inside b.Run so filtered invocations don't pay for
				// (or hold live) the unselected 10⁵-node graphs.
				g := enginebench.Graph(kind, n)
				b.ResetTimer()
				b.ReportAllocs()
				var rounds int
				var msgs int64
				for i := 0; i < b.N; i++ {
					res, err := enginebench.Color(g)
					if err != nil {
						b.Fatal(err)
					}
					rounds, msgs = res.Stats.Rounds, res.Stats.Messages
				}
				b.ReportMetric(float64(rounds), "rounds")
				b.ReportMetric(float64(msgs), "messages")
			})
		}
	}
}

// BenchmarkEngineBarrier isolates the round barrier: n nodes tick
// through 200 empty rounds, so ns/op ≈ 200·n wake/sleep transitions with
// no protocol work at all.
func BenchmarkEngineBarrier(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := enginebench.Graph("regular4", n)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := enginebench.Barrier(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkEngineFlood saturates delivery: every node sends to every
// neighbor every round (FloodRounds·2m messages total).
func BenchmarkEngineFlood(b *testing.B) {
	for _, n := range []int{10000, 100000} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := enginebench.Graph("regular4", n)
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, err := enginebench.Flood(g)
				if err != nil {
					b.Fatal(err)
				}
				if want := int64(enginebench.FloodRounds * 2 * g.M()); st.Messages != want {
					b.Fatalf("delivered %d messages, want %d", st.Messages, want)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// Hot-path microbenchmarks: the derandomization kernel underneath the
// engine workloads (see docs/PERF.md). CI runs these with -benchtime=1x
// as a smoke check; run them with real benchtime to measure.
// ---------------------------------------------------------------------

// BenchmarkFieldMul measures the table-driven GF(2^m) multiply (windowed
// carry-less product + byte-fold reduction).
func BenchmarkFieldMul(b *testing.B) {
	for _, m := range []int{8, 13, 32, 63} {
		m := m
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			f := gf2.MustField(m)
			mask := uint64(1)<<m - 1
			x, y := uint64(0x9e3779b97f4a7c15)&mask, uint64(0xbf58476d1ce4e5b9)&mask
			var acc uint64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				acc = f.Mul(acc^x, y) | 1
			}
			sinkUint64 = acc
		})
	}
}

// BenchmarkFamilyEval measures a pairwise-independent hash evaluation
// (Horner chain + word-extracted seed coefficients).
func BenchmarkFamilyEval(b *testing.B) {
	fam := gf2.MustFamily(13, 2)
	seed := gf2.Vec128{Lo: 0x243f6a8885a308d3, Hi: 0x13198a2e03707344}
	var acc uint64
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		acc ^= fam.Eval(seed, uint64(i)&(1<<13-1))
	}
	sinkUint64 = acc
}

// BenchmarkEdgeExpectation measures one Lemma 2.2 conditional-
// expectation edge term on the scalar split-basis kernel, both β
// branches in one call. Its production input is a seed longer than 64
// bits, whose high-word forms no residual sheet can carry, so the
// benchmark runs the 33-bit family (a 66-bit seed);
// BenchmarkDenseNodeBlock measures the sheet path every shorter seed
// takes.
func BenchmarkEdgeExpectation(b *testing.B) {
	fam := gf2.MustFamily(33, 2)
	const acc = 11
	fu := fam.OutputForms(7, acc)
	fv := fam.OutputForms(19, acc)
	cu, err := gf2.NewCoinFromForms(fu, 3, 7)
	if err != nil {
		b.Fatal(err)
	}
	cv, err := gf2.NewCoinFromForms(fv, 4, 9)
	if err != nil {
		b.Fatal(err)
	}
	basis := gf2.NewBasis()
	basis.FixBit(0, true)
	basis.FixBit(2, false)
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sb, ok := basis.Split(3 + i%8)
		if !ok {
			b.Fatal("split refused")
		}
		e0, e1 := core.EdgeExpectationSplit(sb, cu, cv, 3, 4, 4, 5)
		sb.Release()
		sink += e0 + e1
	}
	sinkFloat64 = sink
}

// BenchmarkDenseNodeBlock measures one congest-dense node's sheet work
// per seed bit, the way the phase hub runs it: the RandomRegular(2000,
// 16) input with lists deg+3 derives B = 10 of M = 11, so a node that
// owns 8 conflict edges lays its coin and theirs out on two sheets
// (the owner plus 5 neighbors, then the owner plus 3), with thresholds
// k1·2^10/19. Each iteration is one seed bit: the neighbors' batched
// marginals, one owner walk, its replay for the 8 edges, and the plane
// folds; iterations cycle through all 22 bits, re-laying the sheets
// after the last. ns/edge is the time per owned edge per seed bit.
func BenchmarkDenseNodeBlock(b *testing.B) {
	fam := gf2.MustFamily(11, 2)
	const acc, lists = 10, 19
	nbrX := [8]uint64{19, 23, 31, 41, 57, 73, 101, 137}
	nbrK1 := [8]uint64{7, 10, 8, 11, 6, 12, 9, 5}
	myForms := fam.OutputForms(7, acc)
	myCoin, err := gf2.NewCoinFromForms(myForms, 9, lists)
	if err != nil {
		b.Fatal(err)
	}
	var nbrForms [8][]gf2.Form
	var cvs [8]gf2.BlockCoin
	for k, x := range nbrX {
		nbrForms[k] = fam.OutputForms(x, acc)
		c, err := gf2.NewCoinFromForms(nbrForms[k], nbrK1[k], lists)
		if err != nil {
			b.Fatal(err)
		}
		cvs[k] = gf2.BlockCoin{B: c.Bits(), T: c.Threshold()}
	}
	var sheets [2]gf2.FormSheet
	sheetOf := [8]int{0, 0, 0, 0, 0, 1, 1, 1}
	var cu gf2.BlockCoin
	lay := func() {
		for s := range sheets {
			sheets[s].Reset()
			lane, ok := sheets[s].AddForms(myForms)
			if !ok {
				b.Fatal("AddForms refused")
			}
			cu = gf2.BlockCoin{Lane: lane, B: myCoin.Bits(), T: myCoin.Threshold()}
		}
		for k := range cvs {
			lane, ok := sheets[sheetOf[k]].AddForms(nbrForms[k])
			if !ok {
				b.Fatal("AddForms refused")
			}
			cvs[k].Lane = lane
		}
		for s := range sheets {
			sheets[s].Seal()
		}
	}
	lay()
	basis := gf2.NewBasis()
	var pv [8]gf2.ProbPair
	d := fam.SeedBits()
	j := 0
	b.ReportAllocs()
	var sink float64
	for i := 0; i < b.N; i++ {
		sb, ok := basis.Split(j)
		if !ok {
			b.Fatal("split refused")
		}
		sb.ProbOnePairBlock(&sheets[0], cvs[:5], pv[:5])
		sb.ProbOnePairBlock(&sheets[1], cvs[5:], pv[5:])
		ow := sb.WalkOwner(&sheets[0], cu)
		for k := range cvs {
			p11 := ow.Joint(&sheets[sheetOf[k]], cvs[k], pv[k])
			sink += p11.P0 + p11.P1
		}
		sb.Release()
		rj := i%2 == 0
		basis.FixBit(j, rj)
		sheets[0].Fix(j, rj)
		sheets[1].Fix(j, rj)
		if j++; j == d {
			j = 0
			basis.Reset()
			lay()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(cvs)), "ns/edge")
	sinkFloat64 = sink
}

var (
	sinkUint64  uint64
	sinkFloat64 float64
)

func isqrtBench(x int) int {
	r := 0
	for (r+1)*(r+1) <= x {
		r++
	}
	return r
}

// BenchmarkEngineCliqueFlood saturates the clique Exchange fabric:
// all-to-all one-word traffic, n·(n−1) messages per round through the
// shared engine's scatter pass.
func BenchmarkEngineCliqueFlood(b *testing.B) {
	for _, n := range []int{512, 1536} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, err := enginebench.CliqueFlood(n)
				if err != nil {
					b.Fatal(err)
				}
				if want := int64(enginebench.CliqueFloodRounds * n * (n - 1)); st.Messages != want {
					b.Fatalf("delivered %d messages, want %d", st.Messages, want)
				}
			}
		})
	}
}

// BenchmarkEngineMPCSort drives the Lemma 5.1 record-moving hot path:
// distributed sort plus group ranks/sizes over the engine pool.
func BenchmarkEngineMPCSort(b *testing.B) {
	for _, n := range []int{1000000, 4000000} {
		n := n
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := enginebench.MPCSortRanks(n); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
