package congest

import (
	"slices"
	"sync"
	"testing"

	"smallbandwidth/internal/graph"
)

// collectTrees builds a BFS tree on g and returns each node's local view.
func collectTrees(t *testing.T, g *graph.Graph, root int) []*Tree {
	t.Helper()
	trees := make([]*Tree, g.N())
	var mu sync.Mutex
	_, err := Run(g, Config{}, func(ctx *Ctx) {
		tr := BuildBFSTree(ctx, root)
		mu.Lock()
		trees[ctx.ID()] = tr
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	return trees
}

func TestBFSTreeStructure(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"path":    graph.Path(10),
		"cycle":   graph.Cycle(9),
		"grid":    graph.Grid2D(4, 6),
		"star":    graph.Star(8),
		"regular": graph.MustRandomRegular(30, 4, 5),
		"single":  graph.Path(1),
		"barbell": graph.Barbell(4, 6),
	}
	for name, g := range graphs {
		t.Run(name, func(t *testing.T) {
			root := 0
			trees := collectTrees(t, g, root)
			dist, _ := g.BFS(root)
			maxDepth := 0
			for v, tr := range trees {
				if tr.Depth != dist[v] {
					t.Errorf("node %d depth %d, BFS dist %d", v, tr.Depth, dist[v])
				}
				if tr.Depth > maxDepth {
					maxDepth = tr.Depth
				}
				if v == root {
					if tr.Parent != -1 {
						t.Errorf("root has parent %d", tr.Parent)
					}
				} else {
					if tr.Parent < 0 || !g.HasEdge(v, tr.Parent) {
						t.Errorf("node %d parent %d not a neighbor", v, tr.Parent)
					}
					if trees[tr.Parent].Depth != tr.Depth-1 {
						t.Errorf("node %d parent depth mismatch", v)
					}
				}
				for _, ch := range tr.Children {
					if trees[ch].Parent != v {
						t.Errorf("child %d of %d does not point back", ch, v)
					}
				}
			}
			for _, tr := range trees {
				if tr.Height != maxDepth {
					t.Errorf("tree height %d, want %d", tr.Height, maxDepth)
				}
				if tr.Size != g.N() {
					t.Errorf("tree size %d, want %d", tr.Size, g.N())
				}
			}
			// Every non-root node is someone's child exactly once.
			childCount := make([]int, g.N())
			for _, tr := range trees {
				for _, ch := range tr.Children {
					childCount[ch]++
				}
			}
			for v, c := range childCount {
				want := 1
				if v == root {
					want = 0
				}
				if c != want {
					t.Errorf("node %d is child of %d parents", v, c)
				}
			}
		})
	}
}

func TestBFSTreeRoundsProportionalToDiameter(t *testing.T) {
	small := graph.Cycle(8)
	big := graph.Cycle(64)
	stSmall, err := Run(small, Config{}, func(ctx *Ctx) { BuildBFSTree(ctx, 0) })
	if err != nil {
		t.Fatal(err)
	}
	stBig, err := Run(big, Config{}, func(ctx *Ctx) { BuildBFSTree(ctx, 0) })
	if err != nil {
		t.Fatal(err)
	}
	if stBig.Rounds <= stSmall.Rounds {
		t.Errorf("tree build rounds should grow with D: %d vs %d", stSmall.Rounds, stBig.Rounds)
	}
	if stBig.Rounds > 8*big.Diameter()+20 {
		t.Errorf("tree build took %d rounds on diameter %d", stBig.Rounds, big.Diameter())
	}
}

// converge is one ConvergeSumLockstepTo at the tightest legal schedule:
// every node returns in round start+2·Height.
func converge(ctx *Ctx, tr *Tree, op uint64, vec []float64) []float64 {
	return ConvergeSumLockstepTo(ctx, tr, op, vec, ctx.Round()+2*tr.Height)
}

// TestConvergeSumAllNodes pins ConvergeSumLockstepTo's closed forms
// against a tree-only run on the same graph: exactly 2(n−1) messages of
// len(vec)+2 words, every node back in round until, and the exact sums
// at every node.
func TestConvergeSumAllNodes(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Path(12), graph.Grid2D(4, 5), graph.Star(9), graph.BinaryTree(15), graph.Path(1),
	} {
		n := g.N()
		treeOnly, err := Run(g, Config{}, func(ctx *Ctx) { BuildBFSTree(ctx, 0) })
		if err != nil {
			t.Fatal(err)
		}
		results := make([][]float64, n)
		late := 0
		var mu sync.Mutex
		st, err := Run(g, Config{}, func(ctx *Ctx) {
			tr := BuildBFSTree(ctx, 0)
			vec := []float64{float64(ctx.ID()), 1.0}
			until := ctx.Round() + 2*tr.Height + 3
			sum := ConvergeSumLockstepTo(ctx, tr, 1, vec, until)
			mu.Lock()
			results[ctx.ID()] = slices.Clone(sum)
			if ctx.Round() != until {
				late++
			}
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		if late != 0 {
			t.Errorf("n=%d: %d nodes did not return in round until", n, late)
		}
		const width = 2 + 2 // tag, op and the two values
		if msgs, words := st.Messages-treeOnly.Messages, st.Words-treeOnly.Words; msgs != int64(2*(n-1)) || words != int64(2*(n-1)*width) {
			t.Errorf("n=%d: aggregation cost %d messages, %d words; want %d, %d", n, msgs, words, 2*(n-1), 2*(n-1)*width)
		}
		want := []float64{float64(n*(n-1)) / 2, float64(n)}
		for v, res := range results {
			if !slices.Equal(res, want) {
				t.Errorf("n=%d node %d sum = %v, want %v", n, v, res, want)
			}
		}
	}
}

// TestConvergeSumLockstepMatchesGeneric: the skip-scheduled aggregation
// must return the same sums at every node and consume identical Stats as
// the message-driven waveSum on the same tree, once both resynchronize to
// the same round.
func TestConvergeSumLockstepMatchesGeneric(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Path(12), graph.Grid2D(4, 5), graph.Star(9), graph.BinaryTree(15), graph.Path(1),
	} {
		n := g.N()
		run := func(lockstep bool) ([][]float64, Stats) {
			t.Helper()
			results := make([][]float64, n)
			var mu sync.Mutex
			st, err := Run(g, Config{}, func(ctx *Ctx) {
				tr := BuildBFSTree(ctx, 0)
				vec := []float64{float64(ctx.ID()), 1.0}
				until := ctx.Round() + 2*tr.Height + 3
				var sum []float64
				if lockstep {
					sum = slices.Clone(ConvergeSumLockstepTo(ctx, tr, 1, vec, until))
				} else {
					sum = waveSum(ctx, tr, 1, vec)
					SpinUntil(ctx, until)
				}
				mu.Lock()
				results[ctx.ID()] = sum
				mu.Unlock()
			})
			if err != nil {
				t.Fatal(err)
			}
			return results, *st
		}
		generic, gStats := run(false)
		lockstep, lStats := run(true)
		if gStats != lStats {
			t.Errorf("n=%d: lockstep stats %+v differ from generic %+v", n, lStats, gStats)
		}
		for v := range generic {
			if !slices.Equal(lockstep[v], generic[v]) {
				t.Errorf("n=%d node %d: lockstep sum %v, generic %v", n, v, lockstep[v], generic[v])
			}
		}
	}
}

func TestSequentialOps(t *testing.T) {
	// Several converges back to back must not interfere: each call
	// reuses the Tree's buffers of the one before.
	g := graph.Grid2D(3, 4)
	var mu sync.Mutex
	bad := false
	_, err := Run(g, Config{}, func(ctx *Ctx) {
		tr := BuildBFSTree(ctx, 0)
		for op := uint64(0); op < 5; op++ {
			sum := converge(ctx, tr, op, []float64{1, float64(op)})
			if sum[0] != float64(g.N()) || sum[1] != float64(g.N())*float64(op) {
				mu.Lock()
				bad = true
				mu.Unlock()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad {
		t.Error("sequential tree ops interfered")
	}
}
