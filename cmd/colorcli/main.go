// colorcli generates a graph, runs one of the paper's coloring
// algorithms on it, verifies the result, and prints the measured cost.
//
// Examples:
//
//	colorcli -graph cycle -n 64 -model congest
//	colorcli -graph regular -n 128 -d 4 -model clique
//	colorcli -graph grid -n 64 -model mpc -sublinear
//	colorcli -graph barbell -n 64 -model decomposed
//	colorcli -graph torus -n 4096 -model congest -checkpoint-every 8 -checkpoint run.snap
//	colorcli -resume run.snap
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"

	sb "smallbandwidth"
	"smallbandwidth/internal/congest"
	"smallbandwidth/internal/core"
	"smallbandwidth/internal/netdecomp"
	"smallbandwidth/internal/store"
)

func main() {
	var (
		graphKind = flag.String("graph", "cycle", "cycle|path|grid|torus|star|clique|regular|gnp|barbell|caveman|hypercube")
		n         = flag.Int("n", 64, "number of nodes (interpreted per generator)")
		d         = flag.Int("d", 4, "degree for -graph regular")
		p         = flag.Float64("p", 0.1, "edge probability for -graph gnp")
		seed      = flag.Uint64("seed", 1, "generator seed")
		model     = flag.String("model", "congest", "congest|decomposed|clique|mpc|randomized|greedy")
		sublinear = flag.Bool("sublinear", false, "use sublinear memory in -model mpc")
		lists     = flag.String("lists", "deltaplus1", "deltaplus1|random")
		colors    = flag.Uint("colors", 0, "color-space size for -lists random (0 = 4·Δ)")
		ckEvery   = flag.Int("checkpoint-every", 0, "write a checkpoint after every N consistent cuts (congest) or color classes (decomposed); 0 disables")
		ckFile    = flag.String("checkpoint", "checkpoint.snap", "checkpoint file written by -checkpoint-every")
		resume    = flag.String("resume", "", "resume from a checkpoint file; all graph and model flags are ignored (the file records the instance and options)")
		workers   = flag.Int("workers", 0, "cap the engine's delivery/compute workers (0 = GOMAXPROCS); results are bit-identical at every setting")
	)
	flag.Parse()

	if *resume != "" {
		runResume(*resume)
		return
	}

	// -checkpoint-every only has an implementation for the two resumable
	// pipelines; anywhere else it used to be silently ignored, leaving
	// the user without the checkpoints they asked for. The same applies
	// to a negative interval and to -checkpoint named without an
	// interval: both used to run to completion without ever writing the
	// file the user asked for.
	if *ckEvery < 0 {
		log.Fatalf("-checkpoint-every must be >= 0, got %d (0 disables checkpointing)", *ckEvery)
	}
	if *ckEvery > 0 && *model != "congest" && *model != "decomposed" {
		log.Fatalf("-checkpoint-every is not supported by -model %s (checkpointing models: congest, decomposed)", *model)
	}
	if *ckEvery == 0 {
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "checkpoint" {
				log.Fatalf("-checkpoint %s without -checkpoint-every N never writes a checkpoint; add -checkpoint-every", *ckFile)
			}
		})
	}

	// -workers bounds the simulator engine's parallelism; a negative or
	// absurd value is a mistake, not a request, and the models that never
	// reach the engine would otherwise silently ignore the flag.
	if *workers < 0 || *workers > congest.MaxWorkers {
		log.Fatalf("-workers must be in [0,%d], got %d (0 uses GOMAXPROCS)", congest.MaxWorkers, *workers)
	}
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "workers" && *model != "congest" && *model != "decomposed" {
			log.Fatalf("-workers is not supported by -model %s (engine-backed models: congest, decomposed)", *model)
		}
	})

	g := buildGraph(*graphKind, *n, *d, *p, *seed)
	var inst *sb.Instance
	switch *lists {
	case "deltaplus1":
		inst = sb.DeltaPlusOne(g)
	case "random":
		c := uint32(*colors)
		if c == 0 {
			c = uint32(4*g.MaxDegree() + 4)
		}
		var err error
		inst, err = sb.RandomLists(g, c, 1, *seed+1)
		if err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown -lists %q", *lists)
	}

	fmt.Printf("graph=%s n=%d m=%d Δ=%d %s colorspace=%d\n",
		*graphKind, g.N(), g.M(), g.MaxDegree(), diameterBound(g), inst.C)

	switch *model {
	case "congest":
		var res *sb.CONGESTResult
		var err error
		if *ckEvery > 0 {
			res, err = runCongestCheckpointed(inst, *ckEvery, *ckFile, *workers)
		} else {
			res, err = sb.ColorCONGEST(inst, sb.CONGESTOptions{Workers: *workers})
		}
		fail(err)
		fmt.Printf("CONGEST (Thm 1.1): rounds=%d messages=%d maxMsgWords=%d iterations=%d\n",
			res.Stats.Rounds, res.Stats.Messages, res.Stats.MaxMessageWords, res.Iterations)
	case "decomposed":
		var res *sb.DecompResult
		var err error
		if *ckEvery > 0 {
			res, err = runDecomposedCheckpointed(inst, *ckEvery, *ckFile, *workers)
		} else {
			res, err = sb.ColorDecomposed(inst, sb.CONGESTOptions{Workers: *workers})
		}
		fail(err)
		dc := res.Decomp
		fmt.Printf("Corollary 1.2: chargedRounds=%d α=%d β=%d κ=%d clusters=%d\n",
			res.ChargedRounds, dc.Colors, dc.Beta, dc.Congestion, len(dc.Clusters))
	case "clique":
		res, err := sb.ColorClique(inst)
		fail(err)
		fmt.Printf("CLIQUE (Thm 1.3): rounds=%d iterations=%d maxBatch=%d localFinishAt=%d\n",
			res.Stats.Rounds, res.Iterations, res.MaxBatch, res.LocalFinishUncolored)
	case "mpc":
		res, err := sb.ColorMPC(inst, sb.MPCOptions{Sublinear: *sublinear})
		fail(err)
		regime := "linear (Thm 1.4)"
		if *sublinear {
			regime = "sublinear (Thm 1.5)"
		}
		fmt.Printf("MPC %s: rounds=%d machines=%d S=%d memHW=%d ioHW=%d\n",
			regime, res.Rounds, res.Machines, res.S, res.HighWaterMemory, res.HighWaterIO)
	case "randomized":
		res, err := sb.ColorRandomizedBaseline(inst, *seed)
		fail(err)
		fmt.Printf("randomized [Joh99]: rounds=%d messages=%d\n", res.Rounds, res.Stats.Messages)
	case "greedy":
		colors := sb.Greedy(inst)
		fail(inst.VerifyColoring(colors))
		fmt.Println("sequential greedy: ok")
	default:
		log.Fatalf("unknown -model %q", *model)
	}
	fmt.Println("coloring verified ✓")
}

// diameterBound labels the diameter D from one BFS from node 0, whose
// eccentricity e satisfies e ≤ D ≤ 2e: "D∈[e,2e]", or "D=-1" for a
// disconnected graph and "D=0" for n ≤ 1. The exact Graph.Diameter is
// one BFS per node, which dominates the whole run on a large graph.
func diameterBound(g *sb.Graph) string {
	if g.N() <= 1 {
		return "D=0"
	}
	dist, _ := g.BFS(0)
	e := 0
	for _, d := range dist {
		if d < 0 {
			return "D=-1"
		}
		e = max(e, d)
	}
	return fmt.Sprintf("D∈[%d,%d]", e, 2*e)
}

func buildGraph(kind string, n, d int, p float64, seed uint64) *sb.Graph {
	// The generators reject out-of-range parameters by panicking
	// (library callers pass computed sizes); from the command line the
	// parameters are user input, which must produce a diagnostic, not a
	// stack trace — e.g. -graph cycle -n 2, or -graph regular with n·d
	// odd.
	defer func() {
		if r := recover(); r != nil {
			log.Fatalf("invalid -graph %s parameters (n=%d d=%d): %v", kind, n, d, r)
		}
	}()
	side := int(math.Sqrt(float64(n)))
	if side < 2 {
		side = 2
	}
	switch kind {
	case "cycle":
		return sb.Cycle(n)
	case "path":
		return sb.Path(n)
	case "grid":
		return sb.Grid2D(side, (n+side-1)/side)
	case "torus":
		if side < 3 {
			side = 3
		}
		return sb.Torus2D(side, side)
	case "star":
		return sb.Star(n)
	case "clique":
		return sb.Complete(n)
	case "regular":
		return sb.RandomRegular(n, d, seed)
	case "gnp":
		return sb.GNP(n, p, seed)
	case "barbell":
		return sb.Barbell(n/4, n/2)
	case "caveman":
		return sb.Caveman(max(n/6, 2), 6)
	case "hypercube":
		dim := 0
		for 1<<dim < n {
			dim++
		}
		return sb.Hypercube(dim)
	default:
		fmt.Fprintf(os.Stderr, "unknown graph kind %q\n", kind)
		os.Exit(2)
		return nil
	}
}

// runCongestCheckpointed runs Theorem 1.1 with a checkpointer attached,
// rewriting the checkpoint file after every N consistent cuts. Each file
// is self-contained: instance, options, and the latest cut of every
// component, so `colorcli -resume FILE` needs no other flags.
func runCongestCheckpointed(inst *sb.Instance, every int, file string, workers int) (*sb.CONGESTResult, error) {
	opts := sb.CONGESTOptions{Workers: workers}
	cuts, writes := 0, 0
	ck := &congest.Checkpointer{}
	ck.OnCut = func(*congest.DomainCut) {
		cuts++
		if cuts%every != 0 {
			return
		}
		raw := core.EncodeCheckpoint(&core.Checkpoint{Inst: inst, Opts: opts, Snap: ck.Latest()})
		if err := store.WriteFileAtomic(file, raw); err != nil {
			log.Fatalf("checkpoint: %v", err)
		}
		writes++
	}
	res, err := core.ListColorResumable(inst, opts, ck, nil)
	// Report only what actually hit disk: a run whose cut count never
	// reached the interval used to claim "latest written to FILE" while
	// writing nothing — and a stale same-named file from an earlier run
	// made the lie look true.
	if err == nil && writes > 0 {
		fmt.Printf("checkpoints: %d of %d cuts written, latest to %s\n", writes, cuts, file)
	} else if err == nil && cuts > 0 {
		fmt.Printf("checkpoints: none written (%d cuts observed, below -checkpoint-every %d)\n", cuts, every)
	}
	return res, err
}

// runDecomposedCheckpointed is the Corollary 1.2 counterpart: the
// pipeline checkpoints at class boundaries.
func runDecomposedCheckpointed(inst *sb.Instance, every int, file string, workers int) (*sb.DecompResult, error) {
	opts := sb.CONGESTOptions{Workers: workers}
	classes, writes := 0, 0
	onCk := func(cp *netdecomp.PipelineCheckpoint) {
		classes++
		if classes%every != 0 {
			return
		}
		raw := netdecomp.EncodeCheckpoint(&netdecomp.Checkpoint{Inst: inst, Opts: opts, State: cp})
		if err := store.WriteFileAtomic(file, raw); err != nil {
			log.Fatalf("checkpoint: %v", err)
		}
		writes++
	}
	res, err := netdecomp.ListColorDecomposedResumable(inst, opts, onCk, nil)
	if err == nil && writes > 0 {
		fmt.Printf("checkpoints: %d of %d class boundaries written, latest to %s\n", writes, classes, file)
	} else if err == nil && classes > 0 {
		fmt.Printf("checkpoints: none written (%d class boundaries observed, below -checkpoint-every %d)\n", classes, every)
	}
	return res, err
}

// runResume restores a run from a checkpoint file. The model is read
// from the file itself: the two formats carry distinct fingerprints, so
// decoding tries Theorem 1.1 first and the pipeline second.
func runResume(file string) {
	raw, err := os.ReadFile(file)
	fail(err)
	if cp, err := core.DecodeCheckpoint(raw); err == nil {
		res, err := core.ListColorFromCheckpoint(cp, nil)
		fail(err)
		fail(cp.Inst.VerifyColoring(res.Colors))
		fmt.Printf("resumed CONGEST (Thm 1.1): rounds=%d messages=%d maxMsgWords=%d iterations=%d\n",
			res.Stats.Rounds, res.Stats.Messages, res.Stats.MaxMessageWords, res.Iterations)
	} else if cp, derr := netdecomp.DecodeCheckpoint(raw); derr == nil {
		res, err := netdecomp.ListColorDecomposedResumable(cp.Inst, cp.Opts, nil, cp.State)
		fail(err)
		fail(cp.Inst.VerifyColoring(res.Colors))
		fmt.Printf("resumed Corollary 1.2: chargedRounds=%d classes=%d messages=%d\n",
			res.ChargedRounds, res.Decomp.Colors, res.Messages)
	} else {
		log.Fatalf("%s: not a CONGEST checkpoint (%v) nor a pipeline checkpoint (%v)", file, err, derr)
	}
	fmt.Println("coloring verified ✓")
	os.Exit(0)
}

func fail(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
