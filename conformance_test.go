package smallbandwidth

// Cross-model conformance suite: every theorem's algorithm runs on the
// same seeded instances and must (a) return a proper coloring from the
// lists, and (b) respect its theorem's resource bounds — CONGEST the
// Theorem 1.1 round shape and the bandwidth cap, the decomposition
// pipeline a diameter-independent polylog budget (Corollary 1.2), the
// clique a budget far below CONGEST's diameter term (Theorem 1.3), and
// MPC its per-machine memory and IO caps (Theorems 1.4/1.5). All four
// simulators now share the sharded round engine, so this suite is the
// behavioral lockdown for the shared substrate: a regression in the
// engine's delivery order or accounting surfaces here for every model
// at once.

import (
	"fmt"
	"math"
	"testing"

	"smallbandwidth/internal/serve"
)

// conformanceCase is one seeded instance of the differential table.
type conformanceCase struct {
	name string
	g    *Graph
	// lists overrides the default (Δ+1)-instance when set.
	lists func(g *Graph) (*Instance, error)
}

func conformanceTable() []conformanceCase {
	return []conformanceCase{
		{name: "path33", g: Path(33)},
		{name: "star17", g: Star(16)},
		{name: "regular24-4", g: RandomRegular(24, 4, 11)},
		{name: "gnp28", g: GNP(28, 0.15, 7)},
		{name: "clique12", g: Complete(12)},
		{name: "regular20-lists", g: RandomRegular(20, 4, 3), lists: func(g *Graph) (*Instance, error) {
			return RandomLists(g, 64, 2, 5)
		}},
	}
}

func log2ceil(x int) float64 {
	if x < 2 {
		return 1
	}
	return math.Ceil(math.Log2(float64(x)))
}

func buildInstance(t *testing.T, c conformanceCase) *Instance {
	t.Helper()
	if c.lists != nil {
		inst, err := c.lists(c.g)
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	return DeltaPlusOne(c.g)
}

// TestConformanceAcrossModels runs ColorCONGEST, ColorDecomposed,
// ColorClique, and ColorMPC (both memory regimes) on every table
// instance and checks colorings and resource bounds.
func TestConformanceAcrossModels(t *testing.T) {
	for _, c := range conformanceTable() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			inst := buildInstance(t, c)
			n := c.g.N()
			d := c.g.Diameter()
			if d < 0 {
				// Disconnected: components run in parallel, each bounded by
				// its own diameter < n.
				d = n
			}
			delta := c.g.MaxDegree()
			logC := math.Max(log2ceil(int(inst.C)), 1)
			logN := log2ceil(n)
			logD := math.Max(log2ceil(delta), 1)
			loglogC := math.Max(log2ceil(int(logC)), 1)

			verify := func(model string, colors []uint32) {
				t.Helper()
				if err := inst.VerifyColoring(colors); err != nil {
					t.Fatalf("%s: %v", model, err)
				}
			}

			// Theorem 1.1: O(D·logn·logC·(logΔ+loglogC)) rounds, O(logn)-bit
			// messages.
			congest, err := ColorCONGEST(inst)
			if err != nil {
				t.Fatal(err)
			}
			verify("congest", congest.Colors)
			congestBound := 60 * float64(d+1) * logN * logC * (logD + loglogC)
			if float64(congest.Stats.Rounds) > congestBound {
				t.Errorf("congest rounds %d exceed Theorem 1.1 shape %.0f", congest.Stats.Rounds, congestBound)
			}
			if congest.Stats.MaxMessageWords > 4 {
				t.Errorf("congest message of %d words breaks the bandwidth cap", congest.Stats.MaxMessageWords)
			}

			// Corollary 1.2: polylog rounds, independent of the diameter.
			decomp, err := ColorDecomposed(inst)
			if err != nil {
				t.Fatal(err)
			}
			verify("decomposed", decomp.Colors)
			decompBound := 600 * math.Pow(logN, 4) * logC * (logD + loglogC)
			if float64(decomp.ChargedRounds) > decompBound {
				t.Errorf("decomposed rounds %d exceed the polylog budget %.0f (D=%d must not matter)",
					decomp.ChargedRounds, decompBound, d)
			}

			// Theorem 1.3: O(loglogΔ·logC) rounds per iteration with O(log n)
			// iterations and an O(1)-round local finish — far below the
			// CONGEST diameter term.
			clq, err := ColorClique(inst)
			if err != nil {
				t.Fatal(err)
			}
			verify("clique", clq.Colors)
			cliqueBound := 40 * (logN + 1) * logC * (log2ceil(int(logD)) + loglogC + 4)
			if float64(clq.Stats.Rounds) > cliqueBound {
				t.Errorf("clique rounds %d exceed Theorem 1.3 shape %.0f", clq.Stats.Rounds, cliqueBound)
			}
			if clq.Stats.MaxMessageWords > 4 {
				t.Errorf("clique message of %d words breaks the bandwidth cap", clq.Stats.MaxMessageWords)
			}

			// Theorems 1.4/1.5: memory and per-round IO never exceed S.
			for _, sub := range []bool{false, true} {
				name := "mpc-linear"
				if sub {
					name = "mpc-sublinear"
				}
				res, err := ColorMPC(inst, MPCOptions{Sublinear: sub})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				verify(name, res.Colors)
				if res.HighWaterMemory > res.S {
					t.Errorf("%s: memory high-water %d > S = %d", name, res.HighWaterMemory, res.S)
				}
				if res.HighWaterIO > res.S {
					t.Errorf("%s: IO high-water %d > S = %d", name, res.HighWaterIO, res.S)
				}
				if sub && n >= 24 && res.S >= 8*n {
					t.Errorf("%s: S = %d is not sublinear in n = %d", name, res.S, n)
				}
			}

			// Default instances are (Δ+1)-instances: colors stay below Δ+1.
			if c.lists == nil {
				for _, algo := range [][]uint32{congest.Colors, decomp.Colors, clq.Colors} {
					for v, col := range algo {
						if int(col) > c.g.Degree(v) {
							t.Fatalf("node %d color %d outside its (deg+1)-list", v, col)
						}
					}
				}
			}
		})
	}
}

// TestConformanceAgainstGreedyOracle cross-checks the number of distinct
// colors each model uses against the sequential greedy oracle: no
// distributed run may need a larger color space than the instance
// provides, and all four must agree the instance is solvable.
func TestConformanceAgainstGreedyOracle(t *testing.T) {
	for _, c := range conformanceTable() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			inst := buildInstance(t, c)
			greedy := Greedy(inst)
			if err := inst.VerifyColoring(greedy); err != nil {
				t.Fatalf("greedy oracle failed: %v", err)
			}
			if _, err := ColorCONGEST(inst); err != nil {
				t.Errorf("congest failed on a greedy-solvable instance: %v", err)
			}
			if _, err := ColorClique(inst); err != nil {
				t.Errorf("clique failed on a greedy-solvable instance: %v", err)
			}
			if _, err := ColorMPC(inst); err != nil {
				t.Errorf("mpc failed on a greedy-solvable instance: %v", err)
			}
		})
	}
}

// TestCliqueMPCPinned pins the absolute results of the clique and MPC
// simulators: the colors' CRC-32 and distinct count (the
// serve.ColorsSummary a colorserve response reports) and every count of
// Result and Stats. The conformance instances, Cycle(8) and serve-mix's
// seed-1 inputs (reg32 for the clique, reg64 for MPC) run at ForceBatch
// 0 and 2 and in both MPC memory regimes. A change that moves one seed
// choice, message or charged round of the derandomization fails it,
// where the …Deterministic tests only compare two runs of one build.
func TestCliqueMPCPinned(t *testing.T) {
	instances := map[string]*Instance{
		"cycle8": DeltaPlusOne(Cycle(8)),
		"reg32":  DeltaPlusOne(RandomRegular(32, 6, 1)),
		"reg64":  DeltaPlusOne(RandomRegular(64, 6, 1)),
	}
	for _, c := range conformanceTable() {
		instances[c.name] = buildInstance(t, c)
	}
	clique := func(force int) func(*Instance) (string, error) {
		return func(inst *Instance) (string, error) {
			res, err := ColorClique(inst, CliqueOptions{ForceBatch: force})
			if err != nil {
				return "", err
			}
			distinct, crc := serve.ColorsSummary(res.Colors)
			return fmt.Sprintf("crc=%08x colors=%d iterations=%d maxbatch=%d local=%d rounds=%d messages=%d words=%d maxwords=%d",
				crc, distinct, res.Iterations, res.MaxBatch, res.LocalFinishUncolored,
				res.Stats.Rounds, res.Stats.Messages, res.Stats.Words, res.Stats.MaxMessageWords), nil
		}
	}
	mpc := func(sublinear bool) func(*Instance) (string, error) {
		return func(inst *Instance) (string, error) {
			res, err := ColorMPC(inst, MPCOptions{Sublinear: sublinear})
			if err != nil {
				return "", err
			}
			distinct, crc := serve.ColorsSummary(res.Colors)
			return fmt.Sprintf("crc=%08x colors=%d rounds=%d machines=%d s=%d memhw=%d iohw=%d iterations=%d local=%v",
				crc, distinct, res.Rounds, res.Machines, res.S, res.HighWaterMemory, res.HighWaterIO,
				res.Iterations, res.FinishedLocally), nil
		}
	}
	runs := map[string]func(*Instance) (string, error){
		"clique":        clique(0),
		"clique-batch2": clique(2),
		"mpc-linear":    mpc(false),
		"mpc-sublinear": mpc(true),
	}
	for _, p := range []struct{ instance, run, want string }{
		{"path33", "clique", "crc=e6f43a08 colors=3 iterations=1 maxbatch=1 local=0 rounds=34 messages=7068 words=13816 maxwords=3"},
		{"path33", "clique-batch2", "crc=844dbc90 colors=2 iterations=1 maxbatch=2 local=0 rounds=30 messages=7069 words=13914 maxwords=4"},
		{"path33", "mpc-linear", "crc=315c1293 colors=2 rounds=26 machines=4 s=396 memhw=171 iohw=342 iterations=1 local=false"},
		{"path33", "mpc-sublinear", "crc=fd9ba43d colors=3 rounds=136 machines=22 s=64 memhw=24 iohw=64 iterations=2 local=false"},
		{"star17", "clique", "crc=0aba399b colors=2 iterations=1 maxbatch=1 local=0 rounds=98 messages=7710 words=14970 maxwords=3"},
		{"star17", "clique-batch2", "crc=0aba399b colors=2 iterations=1 maxbatch=2 local=0 rounds=96 messages=7740 words=15060 maxwords=4"},
		{"star17", "mpc-linear", "crc=0aba399b colors=2 rounds=94 machines=4 s=192 memhw=138 iohw=130 iterations=1 local=false"},
		{"star17", "mpc-sublinear", "crc=0aba399b colors=2 rounds=193 machines=10 s=64 memhw=24 iohw=64 iterations=1 local=false"},
		{"regular24-4", "clique", "crc=be97961f colors=5 iterations=1 maxbatch=1 local=1 rounds=60 messages=6623 words=12808 maxwords=3"},
		{"regular24-4", "clique-batch2", "crc=a0640f2e colors=5 iterations=1 maxbatch=2 local=3 rounds=59 messages=6591 words=12844 maxwords=4"},
		{"regular24-4", "mpc-linear", "crc=be97961f colors=5 rounds=44 machines=7 s=288 memhw=156 iohw=288 iterations=1 local=true"},
		{"regular24-4", "mpc-sublinear", "crc=0e2d241e colors=5 rounds=220 machines=30 s=64 memhw=24 iohw=64 iterations=2 local=false"},
		{"gnp28", "clique", "crc=5e94bedc colors=9 iterations=1 maxbatch=1 local=1 rounds=89 messages=12101 words=23441 maxwords=3"},
		{"gnp28", "clique-batch2", "crc=f0c6c9a6 colors=8 iterations=1 maxbatch=2 local=1 rounds=87 messages=12069 words=23533 maxwords=4"},
		{"gnp28", "mpc-linear", "crc=5e94bedc colors=9 rounds=64 machines=7 s=336 memhw=204 iohw=324 iterations=1 local=true"},
		{"gnp28", "mpc-sublinear", "crc=96d6de5c colors=9 rounds=320 machines=36 s=64 memhw=24 iohw=64 iterations=2 local=false"},
		{"clique12", "clique", "crc=09881aaa colors=12 iterations=1 maxbatch=1 local=2 rounds=125 messages=4284 words=8062 maxwords=3"},
		{"clique12", "clique-batch2", "crc=843740f4 colors=12 iterations=1 maxbatch=2 local=2 rounds=123 messages=4341 words=8343 maxwords=4"},
		{"clique12", "mpc-linear", "crc=09881aaa colors=12 rounds=164 machines=18 s=144 memhw=102 iohw=120 iterations=1 local=true"},
		{"clique12", "mpc-sublinear", "crc=d7f0856f colors=12 rounds=352 machines=39 s=64 memhw=24 iohw=64 iterations=2 local=false"},
		{"regular20-lists", "clique", "crc=7d0f3f19 colors=16 iterations=1 maxbatch=1 local=0 rounds=126 messages=11140 words=21516 maxwords=3"},
		{"regular20-lists", "clique-batch2", "crc=f3ff1779 colors=19 iterations=1 maxbatch=2 local=0 rounds=114 messages=11580 words=22543 maxwords=4"},
		{"regular20-lists", "mpc-linear", "crc=3f68a6c8 colors=16 rounds=114 machines=8 s=240 memhw=135 iohw=150 iterations=1 local=false"},
		{"regular20-lists", "mpc-sublinear", "crc=3f68a6c8 colors=16 rounds=237 machines=29 s=64 memhw=24 iohw=64 iterations=1 local=false"},
		{"cycle8", "clique", "crc=af1bed04 colors=3 iterations=1 maxbatch=1 local=0 rounds=46 messages=828 words=1556 maxwords=3"},
		{"cycle8", "clique-batch2", "crc=0b37a42f colors=2 iterations=1 maxbatch=2 local=0 rounds=42 messages=830 words=1583 maxwords=4"},
		{"cycle8", "mpc-linear", "crc=af1bed04 colors=3 rounds=34 machines=4 s=96 memhw=42 iohw=90 iterations=1 local=false"},
		{"cycle8", "mpc-sublinear", "crc=af1bed04 colors=3 rounds=38 machines=6 s=64 memhw=21 iohw=64 iterations=1 local=false"},
		{"reg32", "clique", "crc=3d2e452f colors=7 iterations=1 maxbatch=1 local=3 rounds=60 messages=14020 words=27401 maxwords=3"},
		{"reg32", "clique-batch2", "crc=c2bd2a47 colors=7 iterations=1 maxbatch=2 local=3 rounds=56 messages=14284 words=28148 maxwords=4"},
		{"reg64", "mpc-linear", "crc=dff9e6b6 colors=7 rounds=50 machines=10 s=768 memhw=399 iohw=486 iterations=1 local=true"},
		{"reg64", "mpc-sublinear", "crc=61fb1ed1 colors=7 rounds=357 machines=115 s=64 memhw=24 iohw=64 iterations=2 local=false"},
	} {
		t.Run(p.instance+"/"+p.run, func(t *testing.T) {
			got, err := runs[p.run](instances[p.instance])
			if err != nil {
				t.Fatal(err)
			}
			if got != p.want {
				t.Errorf("got  %s\nwant %s", got, p.want)
			}
		})
	}
}
