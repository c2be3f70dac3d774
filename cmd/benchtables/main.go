// benchtables regenerates every experiment table of EXPERIMENTS.md
// (E1–E12 in DESIGN.md §4): one table per theorem/lemma of the paper,
// comparing the measured quantity against the claimed bound's shape.
//
// Usage: benchtables [-quick] [-exp E1,E5,...]
//
// With -engine it instead benchmarks the CONGEST simulator itself on
// large graphs and records the results in BENCH_congest.json (see
// engine.go), keyed by -label; -clique and -mpc do the same for the
// other two model simulators, and -decomp records the Corollary 1.2
// pipeline (seed-equivalent sequential vs batched class runs) in
// BENCH_decomp.json:
//
//	benchtables -engine -label my-change -o BENCH_congest.json
//	benchtables -clique -label my-change
//	benchtables -mpc -label my-change
//	benchtables -decomp -label my-change
//
// -scale runs the million-node scenario tier opened by the CSR graph
// substrate — 10⁶-node ChungLu/GNP/grid construction, a full engine
// round, one ColorCONGEST iteration, and the ColorDecomposed pipeline —
// and records BENCH_scale.json (1e5-node sweep with -quick); -snapshot
// measures checkpoint recording, encode, decode, and resume at the same
// tier and records BENCH_snapshot.json:
//
//	benchtables -scale -label my-change
//	benchtables -snapshot -label my-change
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	sb "smallbandwidth"
	"smallbandwidth/internal/baseline"
	"smallbandwidth/internal/core"
	"smallbandwidth/internal/mpc"
	"smallbandwidth/internal/netdecomp"
	"smallbandwidth/internal/prng"
)

var quick = flag.Bool("quick", false, "smaller sweeps")

func main() {
	only := flag.String("exp", "", "comma-separated experiment ids (default all)")
	engine := flag.Bool("engine", false, "benchmark the CONGEST engine and record BENCH_congest.json")
	cliqueMode := flag.Bool("clique", false, "benchmark the CLIQUE simulator and record BENCH_clique.json")
	mpcMode := flag.Bool("mpc", false, "benchmark the MPC simulator and record BENCH_mpc.json")
	decompMode := flag.Bool("decomp", false, "benchmark the Corollary 1.2 pipeline (sequential vs batched) and record BENCH_decomp.json")
	scaleMode := flag.Bool("scale", false, "run the million-node scenario tier (CSR builds, engine round, ColorCONGEST, ColorDecomposed at n=1e6; 1e5 with -quick) and record BENCH_scale.json")
	snapshotMode := flag.Bool("snapshot", false, "measure checkpoint recording, encode, decode, and resume at the scale tier (n=1e6; 1e5 with -quick) and record BENCH_snapshot.json")
	storeMode := flag.Bool("store", false, "measure the persistent graph store (ingest, encode, load vs rebuild, first query, 8-session serve sweep) at the scale tier (n=1e6; 1e5 with -quick) and record BENCH_store.json")
	label := flag.String("label", "current", "label for the -engine/-clique/-mpc/-decomp record")
	out := flag.String("o", "", "output path for the -engine/-clique/-mpc/-decomp record (default per mode)")
	procs := flag.String("procs", "current", "GOMAXPROCS for the record sweeps: current, 1, max, or both (runs the sweep at GOMAXPROCS=1 and NumCPU, recording <label>@p1 and <label>@pN)")
	flag.Parse()
	record := func(defPath, schema, source string, workloads func(bool) []EngineWorkload) {
		path := *out
		if path == "" {
			path = defPath
		}
		runAt := func(label string, gomaxprocs int) {
			if gomaxprocs > 0 {
				old := runtime.GOMAXPROCS(gomaxprocs)
				defer runtime.GOMAXPROCS(old)
			}
			if err := recordBench(path, label, schema, source, workloads(*quick)); err != nil {
				fmt.Fprintln(os.Stderr, "benchtables:", err)
				os.Exit(1)
			}
			fmt.Printf("recorded benchmarks under label %q in %s (GOMAXPROCS=%d)\n", label, path, runtime.GOMAXPROCS(0))
		}
		runs, note, err := procRuns(*procs, *label, runtime.NumCPU())
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchtables:", err)
			os.Exit(1)
		}
		if note != "" {
			fmt.Fprintln(os.Stderr, "benchtables:", note)
		}
		for _, r := range runs {
			runAt(r.label, r.gomaxprocs)
		}
	}
	switch {
	case *engine:
		record("BENCH_congest.json", "smallbandwidth/bench-congest/v2", "cmd/benchtables -engine", engineBench)
		return
	case *cliqueMode:
		record("BENCH_clique.json", "smallbandwidth/bench-clique/v1", "cmd/benchtables -clique", cliqueBench)
		return
	case *mpcMode:
		record("BENCH_mpc.json", "smallbandwidth/bench-mpc/v1", "cmd/benchtables -mpc", mpcBench)
		return
	case *decompMode:
		record("BENCH_decomp.json", "smallbandwidth/bench-decomp/v1", "cmd/benchtables -decomp", decompBench)
		return
	case *scaleMode:
		record("BENCH_scale.json", "smallbandwidth/bench-scale/v1", "cmd/benchtables -scale", scaleBench)
		return
	case *snapshotMode:
		record("BENCH_snapshot.json", "smallbandwidth/bench-snapshot/v1", "cmd/benchtables -snapshot", snapshotBench)
		return
	case *storeMode:
		record("BENCH_store.json", "smallbandwidth/bench-store/v1", "cmd/benchtables -store", storeBench)
		return
	}
	// The experiment tables don't record gomaxprocs; silently ignoring
	// -procs here would let a user believe they measured a parallelism
	// sweep when they didn't.
	if *procs != "current" {
		fmt.Fprintf(os.Stderr, "benchtables: -procs applies only to the record modes (-engine/-clique/-mpc/-decomp/-scale/-snapshot/-store)\n")
		os.Exit(1)
	}
	want := map[string]bool{}
	for _, e := range strings.Split(*only, ",") {
		if e != "" {
			want[strings.ToUpper(e)] = true
		}
	}
	run := func(id string, fn func()) {
		if len(want) > 0 && !want[id] {
			return
		}
		fn()
	}
	run("E1", e1)
	run("E2", e2)
	run("E3", e3)
	run("E4", e4)
	run("E5", e5)
	run("E6", e6)
	run("E7", e7)
	run("E8", e8)
	run("E9", e9)
	run("E10", e10)
	run("E11", e11)
	run("E12", e12)
}

// procRun is one record sweep: its label and the GOMAXPROCS it runs at
// (0 leaves GOMAXPROCS as it is).
type procRun struct {
	label      string
	gomaxprocs int
}

// procRuns resolves -procs mode into the sweeps to record on a host
// with ncpu CPUs. On one CPU, "both" records only <label>@p1: an @pN
// twin would measure the same single-core configuration and could be
// read as multi-core scaling evidence. note, when not empty, tells the
// operator what a single-CPU host changed.
func procRuns(mode, label string, ncpu int) (runs []procRun, note string, err error) {
	switch mode {
	case "current":
		return []procRun{{label, 0}}, "", nil
	case "1":
		return []procRun{{label, 1}}, "", nil
	case "max":
		if ncpu == 1 {
			note = "host reports 1 CPU; the max sweep measures the single-core configuration (num_cpu=1 is recorded as such)"
		}
		return []procRun{{label, ncpu}}, note, nil
	case "both":
		if ncpu == 1 {
			return []procRun{{label + "@p1", 1}}, "host reports 1 CPU; recording only " + label + "@p1, since an @pN twin would measure the same single-core configuration", nil
		}
		return []procRun{{label + "@p1", 1}, {label + "@pN", ncpu}}, "", nil
	}
	return nil, "", fmt.Errorf("unknown -procs value %q (want current, 1, max, or both)", mode)
}

func header(id, claim string) {
	fmt.Printf("\n## %s — %s\n\n", id, claim)
}

// E1: Theorem 1.1 round scaling.
func e1() {
	header("E1", "Theorem 1.1: rounds = O(D·logn·logC·(logΔ+loglogC))")
	fmt.Printf("%-12s %5s %4s %3s %4s %9s %12s %8s\n",
		"graph", "n", "D", "Δ", "logC", "rounds", "bound-shape", "ratio")
	sizes := []int{16, 32, 64}
	if !*quick {
		sizes = append(sizes, 128)
	}
	for _, n := range sizes {
		for _, mk := range []struct {
			name string
			g    *sb.Graph
		}{
			{"cycle", sb.Cycle(n)},
			{"regular4", sb.RandomRegular(n, 4, 1)},
		} {
			inst := sb.DeltaPlusOne(mk.g)
			res, err := sb.ColorCONGEST(inst)
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			d := mk.g.Diameter()
			delta := mk.g.MaxDegree()
			logc := res.Params.LogC
			shape := float64(d) * logn(n) * float64(logc) * (logn(delta) + logn(logc))
			fmt.Printf("%-12s %5d %4d %3d %4d %9d %12.0f %8.3f\n",
				mk.name, n, d, delta, logc, res.Stats.Rounds, shape,
				float64(res.Stats.Rounds)/shape)
		}
	}
}

// E2: Lemma 2.1 colored fraction per invocation.
func e2() {
	header("E2", "Lemma 2.1: every iteration colors ≥ 1/8 of uncolored nodes")
	fmt.Printf("%-12s %5s %10s %10s %10s\n", "graph", "n", "iterations", "minFrac", "guarantee")
	for _, mk := range []struct {
		name string
		g    *sb.Graph
	}{
		{"cycle", sb.Cycle(48)},
		{"grid", sb.Grid2D(6, 8)},
		{"regular4", sb.RandomRegular(48, 4, 2)},
		{"star", sb.Star(32)},
		{"caveman", sb.Caveman(6, 5)},
	} {
		inst := sb.DeltaPlusOne(mk.g)
		res, err := sb.ColorCONGEST(inst)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		minFrac := 1.0
		for i := 0; i < res.Iterations; i++ {
			f := float64(res.Colored[i]) / float64(res.AliveAt[i])
			if f < minFrac {
				minFrac = f
			}
		}
		fmt.Printf("%-12s %5d %10d %10.3f %10s\n", mk.name, mk.g.N(), res.Iterations, minFrac, "0.125")
	}
}

// E3: Lemma 2.6 potential growth.
func e3() {
	header("E3", "Lemma 2.6: ΣΦ grows ≤ n_alive/⌈logC⌉ per phase; final ΣΦ ≤ 2n (Lemma 2.1)")
	fmt.Printf("%-12s %5s %14s %14s %12s\n", "graph", "n", "maxPhaseGrowth", "budget/phase", "maxFinal/2n")
	for _, mk := range []struct {
		name string
		g    *sb.Graph
	}{
		{"regular4", sb.RandomRegular(40, 4, 4)},
		{"grid", sb.Grid2D(5, 8)},
		{"torus", sb.Torus2D(6, 6)},
	} {
		inst := sb.DeltaPlusOne(mk.g)
		res, err := sb.ColorCONGEST(inst, sb.CONGESTOptions{TrackPotentials: true})
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		maxGrowth, budget, maxFinalRatio := 0.0, 0.0, 0.0
		for i := 0; i < res.Iterations; i++ {
			alive := float64(res.AliveAt[i])
			budget = alive / float64(res.Params.LogC)
			prev := res.PotentialStart[i]
			for l := 0; l < res.Params.LogC; l++ {
				if g := res.PotentialPhase[i][l] - prev; g > maxGrowth {
					maxGrowth = g
				}
				prev = res.PotentialPhase[i][l]
			}
			if r := prev / (2 * alive); r > maxFinalRatio {
				maxFinalRatio = r
			}
		}
		fmt.Printf("%-12s %5d %14.4f %14.4f %12.4f\n",
			mk.name, mk.g.N(), maxGrowth, budget, maxFinalRatio)
	}
}

// E4: seed length independent of n.
func e4() {
	header("E4", "Lemma 2.5/2.6: seed length O(logΔ+logK+loglogC), independent of n")
	fmt.Printf("%5s %4s %6s %10s\n", "n", "Δ", "seedD", "seed/logn")
	for _, n := range []int{16, 32, 64, 128, 256} {
		inst := sb.DeltaPlusOne(sb.Cycle(n))
		p, err := core.ComputeParams(inst, core.Options{})
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		fmt.Printf("%5d %4d %6d %10.2f\n", n, 2, p.D, float64(p.D)/logn(n))
	}
}

// E5: Corollary 1.2 on high-diameter graphs + decomposition quality.
func e5() {
	header("E5", "Cor 1.2 / Thm 3.1: polylog rounds independent of D; decomposition (α,β,κ)")
	fmt.Printf("%-10s %5s %5s %3s %5s %3s %10s %10s %9s\n",
		"graph", "n", "D", "α", "β", "κ", "decompRnd", "Thm1.1Rnd", "ratio")
	sizes := []int{32, 64, 128}
	if !*quick {
		sizes = append(sizes, 256)
	}
	for _, n := range sizes {
		g := sb.Cycle(n)
		inst := sb.DeltaPlusOne(g)
		dres, err := netdecomp.ListColorDecomposed(inst, core.Options{})
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		tres, err := sb.ColorCONGEST(inst)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		dc := dres.Decomp
		fmt.Printf("%-10s %5d %5d %3d %5d %3d %10d %10d %9.2f\n",
			"cycle", n, g.Diameter(), dc.Colors, dc.Beta, dc.Congestion,
			dres.ChargedRounds, tres.Stats.Rounds,
			float64(dres.ChargedRounds)/float64(tres.Stats.Rounds))
	}
}

// E6: Theorem 1.3 clique rounds.
func e6() {
	header("E6", "Theorem 1.3: clique rounds = O(logC·loglogΔ) — far below CONGEST")
	fmt.Printf("%-10s %5s %3s %8s %6s %9s %13s\n", "graph", "n", "Δ", "rounds", "iters", "maxBatch", "localFinishAt")
	confs := []struct {
		n, d int
	}{{24, 6}, {32, 6}, {48, 8}}
	if !*quick {
		// Dense enough that the u ≤ n/4 window opens before the u·Δ ≤ n
		// local finish: exercises the multi-bit acceleration (maxBatch 2).
		confs = append(confs, struct{ n, d int }{64, 8}, struct{ n, d int }{48, 12})
	}
	for _, c := range confs {
		g := sb.RandomRegular(c.n, c.d, 3)
		inst := sb.DeltaPlusOne(g)
		res, err := sb.ColorClique(inst)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		fmt.Printf("%-10s %5d %3d %8d %6d %9d %13d\n",
			"regular", c.n, c.d, res.Stats.Rounds, res.Iterations, res.MaxBatch, res.LocalFinishUncolored)
	}
}

// E7/E8: MPC rounds + memory audit.
func e7() {
	mpcTable(false, "E7", "Theorem 1.4 (linear memory): rounds = O(logΔ·logC), memory ≤ S")
}
func e8() {
	mpcTable(true, "E8", "Theorem 1.5 (sublinear memory): rounds = O(logΔ·logC + logn), memory ≤ S = Θ(√n)")
}

func mpcTable(sublinear bool, id, claim string) {
	header(id, claim)
	fmt.Printf("%5s %3s %8s %9s %7s %8s %8s\n", "n", "Δ", "machines", "S", "rounds", "memHW", "ioHW")
	sizes := []int{32, 64, 128}
	if !*quick {
		sizes = append(sizes, 256)
	}
	for _, n := range sizes {
		g := sb.RandomRegular(n, 4, 5)
		inst := sb.DeltaPlusOne(g)
		res, err := mpc.ListColorMPC(inst, mpc.Options{Sublinear: sublinear})
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		fmt.Printf("%5d %3d %8d %9d %7d %8d %8d\n",
			n, 4, res.Machines, res.S, res.Rounds, res.HighWaterMemory, res.HighWaterIO)
	}
}

// E9: bandwidth audit.
func e9() {
	header("E9", "CONGEST bandwidth: every message ≤ O(logn) bits (4 words)")
	fmt.Printf("%-10s %5s %10s %13s\n", "graph", "n", "messages", "maxMsgWords")
	for _, mk := range []struct {
		name string
		g    *sb.Graph
	}{
		{"cycle", sb.Cycle(64)},
		{"grid", sb.Grid2D(8, 8)},
		{"regular", sb.RandomRegular(64, 4, 7)},
	} {
		inst := sb.DeltaPlusOne(mk.g)
		res, err := sb.ColorCONGEST(inst)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		fmt.Printf("%-10s %5d %10d %13d\n", mk.name, mk.g.N(), res.Stats.Messages, res.Stats.MaxMessageWords)
	}
}

// E10: derandomization overhead vs the randomized baseline.
func e10() {
	header("E10", "Price of determinism: Thm 1.1 vs randomized [Joh99] rounds")
	fmt.Printf("%-10s %5s %10s %10s %9s\n", "graph", "n", "detRounds", "randRounds", "overhead")
	for _, mk := range []struct {
		name string
		g    *sb.Graph
	}{
		{"cycle", sb.Cycle(48)},
		{"grid", sb.Grid2D(6, 8)},
		{"regular", sb.RandomRegular(48, 4, 8)},
	} {
		inst := sb.DeltaPlusOne(mk.g)
		det, err := sb.ColorCONGEST(inst)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		rnd, err := baseline.RandomizedCONGEST(inst, 1)
		if err != nil {
			fmt.Println("error:", err)
			continue
		}
		fmt.Printf("%-10s %5d %10d %10d %9.1f\n", mk.name, mk.g.N(),
			det.Stats.Rounds, rnd.Rounds, float64(det.Stats.Rounds)/float64(rnd.Rounds))
	}
}

// E11: Section 5 tools O(1) rounds.
func e11() {
	header("E11", "Lemma 5.1: sorting / prefix sums / set difference in O(1) MPC rounds")
	fmt.Printf("%7s %9s %10s %11s %12s\n", "N", "S", "sortRnds", "prefixRnds", "setdiffRnds")
	for _, n := range []int{200, 1000, 5000} {
		// Per-iteration function scope so each runtime's engine pool is
		// released before the next size starts.
		func(n int) {
			s := 40 * isqrtInt(n)
			// Enough machines that one bucket plus one machine's share of
			// the redistribution stays under S even with splitter skew.
			rt, err := mpc.NewRuntime(maxInt(12*n/s, 2)+2, s)
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			defer rt.Close()
			recs := make([]mpc.Rec, n)
			for i := range recs {
				recs[i] = mpc.Rec{uint64((i * 7919) % 1024), uint64(i), 1}
			}
			d, err := mpc.NewDist(rt, recs)
			if err != nil {
				fmt.Println("error:", err)
				return
			}
			if err := d.Sort(rt); err != nil {
				fmt.Println("error:", err)
				return
			}
			sortR := rt.Rounds
			if err := d.PrefixSums(rt, func(a, b uint64) uint64 { return a + b }, 0); err != nil {
				fmt.Println("error:", err)
				return
			}
			prefR := rt.Rounds - sortR
			before := rt.Rounds
			if _, err := mpc.SetDifference(rt, recs[:n/2], recs[n/2:]); err != nil {
				fmt.Println("error:", err)
				return
			}
			fmt.Printf("%7d %9d %10d %11d %12d\n", n, s, sortR, prefR, rt.Rounds-before)
		}(n)
	}
}

// E12: zero-round randomized processes (Lemmas 2.2/2.3) by Monte-Carlo.
func e12() {
	header("E12", "Lemmas 2.2/2.3: E[ΣΦ] non-increasing (uniform) / ≤ +10εΔn (biased)")
	g := sb.RandomRegular(32, 4, 6)
	inst := sb.DeltaPlusOne(g)
	base, err := core.NewPrefixState(inst)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	before := base.Potential()
	trials := 500
	if *quick {
		trials = 100
	}
	sum := 0.0
	for t := 0; t < trials; t++ {
		st, _ := core.NewPrefixState(inst)
		if err := st.StepUniform(prng.New(uint64(t))); err != nil {
			fmt.Println("error:", err)
			return
		}
		sum += st.Potential()
	}
	fmt.Printf("uniform (Lemma 2.2):  Φ₀ = %.3f, mean Φ₁ over %d seeds = %.3f (must be ≤ Φ₀ + noise)\n",
		before, trials, sum/float64(trials))
	iters, err := baseline.RandomSeedPrefix(inst, 3)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("biased-seed process (Lemma 2.3/2.5) colored everything in %d iterations\n", iters)
}

func logn(x int) float64 {
	l := 0.0
	for v := 1; v < x; v *= 2 {
		l++
	}
	if l == 0 {
		l = 1
	}
	return l
}

func isqrtInt(x int) int {
	r := 0
	for (r+1)*(r+1) <= x {
		r++
	}
	return r
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
