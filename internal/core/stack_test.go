package core

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"
	"time"

	"smallbandwidth/internal/congest"
	"smallbandwidth/internal/graph"
)

// nodeStackBudget is the most node-stack memory a run may add per node:
// the 2 KB stack every node coroutine starts with, plus a margin for the
// domain goroutines, the hub's band goroutines and the few coordinator
// stacks that may grow (one node per component per phase). A run whose
// node stacks double to 4 KB reads about 4.3 KB per node.
const nodeStackBudget = 2560

// stackCaseEnv names the one budget case a child process of
// TestNodeStacksFitStartingSize runs.
const stackCaseEnv = "SMALLBANDWIDTH_NODE_STACK_CASE"

// TestNodeStacksFitStartingSize holds every CONGEST node program to the
// 2 KB stack its coroutine starts with. It samples the runtime's stack
// memory through three runs and fails when the peak, less the value
// before the run, exceeds nodeStackBudget per node. A node whose chain
// of live frames at a park, or whatever it calls on top of them, does
// not fit its starting stack doubles it, and keeps the doubled stack
// until a GC shrinks it: with a run's nodes parked at the same place, a
// single deep step doubles every node.
//
// The inputs cover the three chains that park: a large-diameter grid
// (long BFS and aggregation waves), a dense regular graph (many seed
// bits, wide conflict neighborhoods and the MIS step), and the grid
// again with a checkpointer attached, so every iteration top encodes
// and commits a blob. Each run gets a process of its own: the stacks
// an earlier run frees stay in the runtime's stack pools, and a later
// run would reuse them without the figure showing it.
func TestNodeStacksFitStartingSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector instruments every frame; the budget is for ordinary builds")
	}
	if name := os.Getenv(stackCaseEnv); name != "" {
		runStackCase(t, name)
		return
	}
	for _, name := range []string{"grid60", "regular1000x16", "grid60-commit"} {
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-test.run=^TestNodeStacksFitStartingSize$", "-test.v")
			cmd.Env = append(os.Environ(), stackCaseEnv+"="+name)
			out, err := cmd.CombinedOutput()
			var peak, pre uint64
			var n int
			for _, line := range strings.Split(string(out), "\n") {
				if _, scanErr := fmt.Sscanf(strings.TrimSpace(line), "node-stacks peak=%d before=%d nodes=%d", &peak, &pre, &n); scanErr == nil {
					break
				}
			}
			if err != nil || n == 0 {
				t.Fatalf("child run failed (%v):\n%s", err, out)
			}
			perNode := float64(peak-min(pre, peak)) / float64(n)
			t.Logf("node stacks: %.0f B per node over %d nodes (peak %d B, before %d B)", perNode, n, peak, pre)
			if perNode > nodeStackBudget {
				t.Errorf("node stacks took %.0f B per node, budget %d: some node outgrew its 2 KB starting stack", perNode, nodeStackBudget)
			}
		})
	}
}

// runStackCase is a child process's run of one budget case: it samples
// the stack memory through the run and prints the peak, the value
// before the run and the node count.
func runStackCase(t *testing.T, name string) {
	color := func(inst *graph.Instance) error {
		_, err := ListColorCONGEST(inst, Options{})
		return err
	}
	var (
		inst *graph.Instance
		run  = color
		err  error
	)
	switch name {
	case "grid60":
		inst, err = graph.RandomListInstance(graph.Grid2D(60, 60), 16, 2, 1)
	case "regular1000x16":
		inst, err = graph.RandomListInstance(graph.MustRandomRegular(1000, 16, 1), 64, 2, 1)
	case "grid60-commit":
		inst, err = graph.RandomListInstance(graph.Grid2D(60, 60), 16, 2, 1)
		run = func(inst *graph.Instance) error {
			ck := &congest.Checkpointer{OnCut: func(*congest.DomainCut) {}}
			_, err := ListColorResumable(inst, Options{}, ck, nil)
			return err
		}
	default:
		t.Fatalf("unknown case %q", name)
	}
	if err != nil {
		t.Fatal(err)
	}
	// A GC first, which also recomputes the adaptive starting stack size
	// from the few goroutines now alive: a 4 KB starting size would make
	// every node's stack 4 KB whatever its program needs.
	runtime.GC()
	if got := readUint64Metric(t, "/gc/stack/starting-size:bytes"); got != 2048 {
		t.Fatalf("goroutine starting stack is %d B, want 2048", got)
	}
	pre := readUint64Metric(t, "/memory/classes/heap/stacks:bytes")
	var (
		peak uint64
		wg   sync.WaitGroup
	)
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			if s := readUint64Metric(t, "/memory/classes/heap/stacks:bytes"); s > peak {
				peak = s
			}
			select {
			case <-stop:
				return
			case <-time.After(500 * time.Microsecond):
			}
		}
	}()
	err = run(inst)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Printf("node-stacks peak=%d before=%d nodes=%d\n", peak, pre, inst.G.N())
}

// readUint64Metric reads one uint64 runtime metric by name.
func readUint64Metric(t *testing.T, name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		t.Fatalf("runtime metric %s is not supported", name)
	}
	return s[0].Value.Uint64()
}
