package main

// Engine benchmark recording: `benchtables -engine` measures the CONGEST
// simulator itself (not a theorem) on large graphs and merges the
// results into BENCH_congest.json, keyed by -label, so the engine's perf
// trajectory is tracked across PRs; `-clique` and `-mpc` do the same for
// the CONGESTED CLIQUE and MPC simulators (BENCH_clique.json,
// BENCH_mpc.json). The workloads are defined in internal/enginebench,
// shared with the BenchmarkEngine* benchmarks in bench_test.go.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	sb "smallbandwidth"
	"smallbandwidth/internal/enginebench"
	"smallbandwidth/internal/store"
)

// EngineWorkload is one measured engine run.
type EngineWorkload struct {
	Name       string `json:"name"`
	N          int    `json:"n"`
	M          int    `json:"m"`
	Rounds     int    `json:"rounds"`
	Messages   int64  `json:"messages"`
	Words      int64  `json:"words"`
	WallNS     int64  `json:"wall_ns"`
	AllocBytes uint64 `json:"alloc_bytes"`
	Mallocs    uint64 `json:"mallocs"`
}

// EngineRecord is one engine's full measurement set. GoMaxProcs is the
// parallelism the sweep ran with and NumCPU the parallelism the host
// offered, so a record pins both the single-core wall time
// (gomaxprocs = 1) and the multi-core scaling (gomaxprocs = num_cpu) —
// `-procs both` emits the two records in one invocation (only the
// gomaxprocs = 1 record on a 1-CPU host).
type EngineRecord struct {
	GoMaxProcs int              `json:"gomaxprocs"`
	NumCPU     int              `json:"num_cpu,omitempty"`
	Source     string           `json:"source"`
	Workloads  []EngineWorkload `json:"workloads"`
}

// BenchFile is the BENCH_congest.json schema (v2 adds num_cpu and the
// `label@p1`/`label@pN` record pairs of -procs both; v1 records parse
// unchanged): a label→record map so successive PRs append instead of
// overwrite.
type BenchFile struct {
	Schema  string                  `json:"schema"`
	Engines map[string]EngineRecord `json:"engines"`
}

// workloadName formats a sized workload name as "group/kind-n".
func workloadName(group, kind string, n int) string {
	return fmt.Sprintf("%s/%s-%d", group, kind, n)
}

func measure(name string, n, m int, run func() (rounds int, messages, words int64)) EngineWorkload {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	rounds, messages, words := run()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	w := EngineWorkload{
		Name: name, N: n, M: m,
		Rounds: rounds, Messages: messages, Words: words,
		WallNS:     wall.Nanoseconds(),
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		Mallocs:    after.Mallocs - before.Mallocs,
	}
	printWorkload(w)
	return w
}

func printWorkload(w EngineWorkload) {
	fmt.Printf("%-28s n=%-7d m=%-8d rounds=%-6d msgs=%-10d wall=%-12s alloc=%dMB mallocs=%d\n",
		w.Name, w.N, w.M, w.Rounds, w.Messages, time.Duration(w.WallNS).Round(time.Millisecond),
		w.AllocBytes/(1<<20), w.Mallocs)
}

func engineBench(quick bool) []EngineWorkload {
	sizes := []int{10000, 100000}
	if quick {
		sizes = []int{2000, 10000}
	}
	fail := func(what string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "engine %s run failed: %v\n", what, err)
			os.Exit(1)
		}
	}
	var out []EngineWorkload
	for _, n := range sizes {
		for _, kind := range enginebench.Kinds {
			g := enginebench.Graph(kind, n)
			out = append(out, measure(fmt.Sprintf("color/%s", kind), g.N(), g.M(), func() (int, int64, int64) {
				res, err := enginebench.Color(g)
				fail("color", err)
				return res.Stats.Rounds, res.Stats.Messages, res.Stats.Words
			}))
		}
		g := enginebench.Graph("regular4", n)
		out = append(out, measure("barrier/regular4", g.N(), g.M(), func() (int, int64, int64) {
			st, err := enginebench.Barrier(g)
			fail("barrier", err)
			return st.Rounds, st.Messages, st.Words
		}))
		out = append(out, measure("flood/regular4", g.N(), g.M(), func() (int, int64, int64) {
			st, err := enginebench.Flood(g)
			fail("flood", err)
			return st.Rounds, st.Messages, st.Words
		}))
	}
	return out
}

// cliqueBench measures the CONGESTED CLIQUE simulator: the all-to-all
// flood isolates Exchange delivery, the color runs are Theorem 1.3 end
// to end.
func cliqueBench(quick bool) []EngineWorkload {
	floodSizes := []int{512, 1536}
	colorConfs := []struct{ n, d int }{{48, 8}, {64, 8}}
	if quick {
		floodSizes = []int{256, 512}
		colorConfs = []struct{ n, d int }{{32, 6}}
	}
	var out []EngineWorkload
	for _, n := range floodSizes {
		out = append(out, measure(fmt.Sprintf("clique-flood/%d", n), n, n*(n-1)/2, func() (int, int64, int64) {
			st, err := enginebench.CliqueFlood(n)
			if err != nil {
				fmt.Fprintf(os.Stderr, "clique flood run failed: %v\n", err)
				os.Exit(1)
			}
			return st.Rounds, st.Messages, st.Words
		}))
	}
	for _, c := range colorConfs {
		out = append(out, measure(workloadName("clique-color", "regular", c.d), c.n, c.n*c.d/2, func() (int, int64, int64) {
			res, err := enginebench.CliqueColor(c.n, c.d)
			if err != nil {
				fmt.Fprintf(os.Stderr, "clique color run failed: %v\n", err)
				os.Exit(1)
			}
			return res.Stats.Rounds, res.Stats.Messages, res.Stats.Words
		}))
	}
	return out
}

// decompBench measures the Corollary 1.2 pipeline: for each
// high-diameter topology it runs the seed-equivalent sequential path
// (decomp-seq/*: one engine spin-up per cluster per component, as the
// seed scheduled it) next to the batched path (decomp-batched/*: all
// clusters of a color class in one disjoint-union engine run with
// identical-component memoization), recording ChargedRounds as rounds
// and the summed class traffic as messages/words — both pipelines
// charge the same model cost, so the wall-clock column is the
// comparison. decomp-build/* is the frontier-driven decomposition
// builder alone (rounds = construction ChargedRound, messages = cluster
// count, words = β).
func decompBench(quick bool) []EngineWorkload {
	confs := []struct {
		kind string
		n    int
	}{{"cycle", 4096}, {"grid", 4096}, {"cycle", 16384}}
	buildN := 100000
	if quick {
		confs = []struct {
			kind string
			n    int
		}{{"cycle", 1024}, {"grid", 1024}, {"cycle", 4096}}
		buildN = 20000
	}
	fail := func(what string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "decomp %s run failed: %v\n", what, err)
			os.Exit(1)
		}
	}
	var out []EngineWorkload
	for _, c := range confs {
		g := enginebench.DecompGraph(c.kind, c.n)
		for _, batched := range []bool{false, true} {
			mode := "seq"
			if batched {
				mode = "batched"
			}
			name := fmt.Sprintf("decomp-%s/%s%d", mode, c.kind, g.N())
			out = append(out, measure(name, g.N(), g.M(), func() (int, int64, int64) {
				res, err := enginebench.DecompColor(g, batched)
				fail(name, err)
				return res.ChargedRounds, res.Messages, res.Words
			}))
		}
	}
	g := enginebench.DecompGraph("cycle", buildN)
	out = append(out, measure(workloadName("decomp-build", "cycle", buildN), g.N(), g.M(), func() (int, int64, int64) {
		d, err := enginebench.DecompBuild(g)
		fail("build", err)
		return d.ChargedRound, int64(len(d.Clusters)), int64(d.Beta)
	}))
	return out
}

// measureBuild is measure for graph construction: node and edge counts
// are only known once the build ran, so the row (and its progress
// line) is assembled from the built graph afterwards — rounds 0,
// messages = M, words = Δ; the build has no protocol cost, so those
// columns carry the graph's shape instead.
func measureBuild(name string, build func() *sb.Graph) (EngineWorkload, *sb.Graph) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	g := build()
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	w := EngineWorkload{
		Name: name, N: g.N(), M: g.M(),
		Messages: int64(g.M()), Words: int64(g.MaxDegree()),
		WallNS:     wall.Nanoseconds(),
		AllocBytes: after.TotalAlloc - before.TotalAlloc,
		Mallocs:    after.Mallocs - before.Mallocs,
	}
	printWorkload(w)
	return w, g
}

// scaleBench is the million-node scenario tier (BENCH_scale.json): CSR
// construction of all three ScaleKinds topologies at n = 10⁶, one full
// engine round on the power-law graph (the substrate smoke workload),
// one Lemma 2.1 ColorCONGEST iteration on the bounded-degree kinds, and
// the full Corollary 1.2 ColorDecomposed pipeline on the grid. The
// ChungLu kind records construction + engine round only: its power-law
// Δ ≈ n^(2/3) inflates the derandomization parameters (seed length and
// phase count grow with log Δ · log C), which measures parameter blowup
// rather than substrate scale — docs/PERF.md discusses the choice.
func scaleBench(quick bool) []EngineWorkload {
	n := 1000000
	if quick {
		n = 100000
	}
	fail := func(what string, err error) {
		if err != nil {
			fmt.Fprintf(os.Stderr, "scale %s run failed: %v\n", what, err)
			os.Exit(1)
		}
	}
	var out []EngineWorkload
	graphs := map[string]*sb.Graph{}
	for _, kind := range enginebench.ScaleKinds {
		w, g := measureBuild(workloadName("scale-build", kind, n), func() *sb.Graph {
			return enginebench.ScaleGraph(kind, n)
		})
		out = append(out, w)
		graphs[kind] = g
	}
	out = append(out, measure(workloadName("scale-round", "chunglu", n),
		graphs["chunglu"].N(), graphs["chunglu"].M(), func() (int, int64, int64) {
			st, err := enginebench.ScaleRound(graphs["chunglu"])
			fail("round", err)
			return st.Rounds, st.Messages, st.Words
		}))
	graphs["chunglu"] = nil
	for _, kind := range []string{"gnp4", "grid"} {
		g := graphs[kind]
		out = append(out, measure(workloadName("scale-color", kind, n), g.N(), g.M(), func() (int, int64, int64) {
			res, err := enginebench.Color(g)
			fail("color", err)
			return res.Stats.Rounds, res.Stats.Messages, res.Stats.Words
		}))
	}
	g := graphs["grid"]
	out = append(out, measure(workloadName("scale-decomp", "grid", n), g.N(), g.M(), func() (int, int64, int64) {
		res, err := enginebench.DecompColor(g, true)
		fail("decomp", err)
		return res.ChargedRounds, res.Messages, res.Words
	}))
	return out
}

// mpcBench measures the MPC simulator: the sort workloads isolate the
// Lemma 5.1 record-moving tools, the color runs are Theorem 1.4 end to
// end.
func mpcBench(quick bool) []EngineWorkload {
	sortSizes := []int{1000000, 4000000}
	colorConfs := []struct{ n, d int }{{96, 4}, {128, 4}}
	if quick {
		sortSizes = []int{100000, 400000}
		colorConfs = []struct{ n, d int }{{48, 4}}
	}
	var out []EngineWorkload
	for _, n := range sortSizes {
		out = append(out, measure(fmt.Sprintf("mpc-sort/%d", n), n, enginebench.MPCSortMachines, func() (int, int64, int64) {
			rounds, err := enginebench.MPCSortRanks(n)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mpc sort run failed: %v\n", err)
				os.Exit(1)
			}
			return rounds, int64(n), int64(3 * n)
		}))
	}
	for _, c := range colorConfs {
		out = append(out, measure(workloadName("mpc-color", "regular", c.d), c.n, c.n*c.d/2, func() (int, int64, int64) {
			res, err := enginebench.MPCColor(c.n, c.d)
			if err != nil {
				fmt.Fprintf(os.Stderr, "mpc color run failed: %v\n", err)
				os.Exit(1)
			}
			return res.Rounds, int64(res.HighWaterMemory), int64(res.HighWaterIO)
		}))
	}
	return out
}

// recordBench merges one workload sweep into path under label and writes
// the file back.
func recordBench(path, label, schema, source string, workloads []EngineWorkload) error {
	file := BenchFile{Schema: schema, Engines: map[string]EngineRecord{}}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &file); err != nil {
			return fmt.Errorf("existing %s is not valid JSON (%v); refusing to overwrite", path, err)
		}
		file.Schema = schema
		if file.Engines == nil {
			file.Engines = map[string]EngineRecord{}
		}
	}
	file.Engines[label] = EngineRecord{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Source:     source,
		Workloads:  workloads,
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	// BENCH_*.json records are merged into (not regenerated), so a torn
	// write would destroy history: go through the durable rename path.
	return store.WriteFileAtomic(path, append(data, '\n'))
}
