package congest

import (
	"fmt"
	"slices"
	"testing"

	"smallbandwidth/internal/graph"
)

// layoutGraphs is the differential's input set: the deterministic
// families at a few sizes, and 40 seeds each of three random families
// sparse enough to fall apart into components and isolated nodes.
func layoutGraphs() []struct {
	name string
	g    *graph.Graph
} {
	var out []struct {
		name string
		g    *graph.Graph
	}
	add := func(name string, g *graph.Graph) {
		out = append(out, struct {
			name string
			g    *graph.Graph
		}{name, g})
	}
	for _, n := range []int{1, 2, 7, 16} {
		add(fmt.Sprintf("path%d", n), graph.Path(n))
		add(fmt.Sprintf("star%d", n), graph.Star(n))
		add(fmt.Sprintf("complete%d", n), graph.Complete(n))
		add(fmt.Sprintf("binarytree%d", n), graph.BinaryTree(n))
	}
	for _, n := range []int{3, 8, 13} {
		add(fmt.Sprintf("cycle%d", n), graph.Cycle(n))
	}
	for _, rc := range [][2]int{{1, 5}, {3, 4}, {6, 6}} {
		add(fmt.Sprintf("grid%dx%d", rc[0], rc[1]), graph.Grid2D(rc[0], rc[1]))
	}
	for _, d := range []int{2, 3, 5} {
		add(fmt.Sprintf("hypercube%d", d), graph.Hypercube(d))
	}
	add("caveman3x4", graph.Caveman(3, 4))
	add("caveman5x3", graph.Caveman(5, 3))
	add("barbell4x6", graph.Barbell(4, 6))
	add("barbell5x1", graph.Barbell(5, 1))
	for seed := uint64(1); seed <= 40; seed++ {
		n := 20 + int(seed%4)*20
		add(fmt.Sprintf("gnp%d/%d", n, seed), graph.GNP(n, 2.5/float64(n), seed))
		add(fmt.Sprintf("chunglu%d/%d", n, seed), graph.ChungLu(graph.PowerLawWeights(n, 2.5, 2), seed))
		add(fmt.Sprintf("geometric%d/%d", n, seed), graph.RandomGeometric(n, 0.22, seed))
	}
	return out
}

// TestLayoutMatchesBuild is LayoutBFS's differential against the
// flooding build it stands in for: on every graph of layoutGraphs, each
// node's tree (every field), the round each node returns in, each
// component's Stats and the run's Stats must be the build's.
func TestLayoutMatchesBuild(t *testing.T) {
	graphs := layoutGraphs()
	if len(graphs) < 100 {
		t.Fatalf("only %d graphs", len(graphs))
	}
	disconnected, isolated := 0, 0
	for _, tc := range graphs {
		g := tc.g
		n := g.N()
		roots := make([]int, n)
		comps := g.ConnectedComponents()
		for _, comp := range comps {
			for _, v := range comp {
				roots[v] = comp[0]
			}
			if len(comp) == 1 {
				isolated++
			}
		}
		if len(comps) > 1 {
			disconnected++
		}
		trees := make([]*Tree, n)
		ret := make([]int, n)
		st, doms, err := RunWithDomains(g, Config{}, func(ctx *Ctx) {
			trees[ctx.ID()] = BuildBFSTree(ctx, roots[ctx.ID()])
			ret[ctx.ID()] = ctx.Round()
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}

		lay := LayoutBFS(g)
		for v := 0; v < n; v++ {
			want, got := trees[v], lay.Tree(v)
			if got.Root != want.Root || got.Parent != want.Parent || !slices.Equal(got.Children, want.Children) ||
				got.Depth != want.Depth || got.Height != want.Height || got.Size != want.Size ||
				got.SubtreeHeight != want.SubtreeHeight {
				t.Fatalf("%s: node %d layout %+v, build %+v", tc.name, v, *got, *want)
			}
			if int(lay.Parent[v]) != want.Parent || int(lay.Depth[v]) != want.Depth ||
				int(lay.SubtreeHeight[v]) != want.SubtreeHeight || lay.TreeOf(v).Root != roots[v] {
				t.Fatalf("%s: node %d flat layout disagrees with its Tree", tc.name, v)
			}
			if r := lay.TreeOf(v).Build.Rounds; r != ret[v] {
				t.Fatalf("%s: node %d returns in round %d, layout says %d", tc.name, v, ret[v], r)
			}
		}
		if len(doms) != len(lay.Trees) {
			t.Fatalf("%s: %d domains, %d layout trees", tc.name, len(doms), len(lay.Trees))
		}
		var sum Stats
		for i, tl := range lay.Trees {
			if doms[i].Root != tl.Root || doms[i].Stats != tl.Build {
				t.Fatalf("%s: domain %d (root %d) stats %+v, layout tree (root %d) %+v",
					tc.name, i, doms[i].Root, doms[i].Stats, tl.Root, tl.Build)
			}
			sum.Rounds = max(sum.Rounds, tl.Build.Rounds)
			sum.Messages += tl.Build.Messages
			sum.Words += tl.Build.Words
			sum.MaxMessageWords = max(sum.MaxMessageWords, tl.Build.MaxMessageWords)
		}
		if *st != sum {
			t.Fatalf("%s: run stats %+v, layout %+v", tc.name, *st, sum)
		}
	}
	if disconnected < 20 || isolated < 20 {
		t.Fatalf("the set has %d disconnected graphs and %d isolated nodes; want at least 20 of each", disconnected, isolated)
	}
}
