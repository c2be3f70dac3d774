package congest

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"smallbandwidth/internal/graph"
	"smallbandwidth/internal/prng"
)

// TestQueueStressRandomTraffic floods random queued traffic through a
// graph and verifies conservation: every queued message is delivered
// exactly once, in FIFO order per edge, never more than one per edge
// per round.
func TestQueueStressRandomTraffic(t *testing.T) {
	g := graph.Grid2D(5, 5)
	const perNode = 30
	var mu sync.Mutex
	received := map[[2]int][]uint64{} // (from,to) -> payload sequence
	st, err := Run(g, Config{}, func(ctx *Ctx) {
		src := prng.New(uint64(ctx.ID()) + 7)
		sent := 0
		for _, w := range ctx.Neighbors() {
			for i := 0; i < perNode; i++ {
				ctx.SendQueued(int(w), Message{UserTagBase, uint64(ctx.ID()), uint64(i)})
				sent++
			}
			_ = src
		}
		// Tick long enough for all queues to drain.
		for r := 0; r < perNode+5; r++ {
			for _, in := range ctx.Next() {
				mu.Lock()
				key := [2]int{in.From, ctx.ID()}
				received[key] = append(received[key], in.Payload[2])
				mu.Unlock()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.N(); v++ {
		for _, w := range g.Neighbors(v) {
			seq := received[[2]int{v, int(w)}]
			if len(seq) != perNode {
				t.Fatalf("edge %d→%d delivered %d of %d", v, w, len(seq), perNode)
			}
			for i, s := range seq {
				if s != uint64(i) {
					t.Fatalf("edge %d→%d out of order at %d: %d", v, w, i, s)
				}
			}
		}
	}
	// One message per edge-direction per round: with perNode messages per
	// direction, draining takes ≥ perNode rounds.
	if st.Rounds < perNode {
		t.Errorf("rounds %d < %d: cap not enforced", st.Rounds, perNode)
	}
}

// TestSpinUntilReestablishesLockstep: nodes return from BuildBFSTree in
// the same round on every topology.
func TestSpinUntilReestablishesLockstep(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Path(9), graph.Star(7), graph.Barbell(4, 9), graph.Grid2D(4, 4),
	} {
		var mu sync.Mutex
		returnRound := map[int]int{}
		_, err := Run(g, Config{}, func(ctx *Ctx) {
			BuildBFSTree(ctx, 0)
			mu.Lock()
			returnRound[ctx.ID()] = ctx.Round()
			mu.Unlock()
		})
		if err != nil {
			t.Fatal(err)
		}
		first := returnRound[0]
		for v, r := range returnRound {
			if r != first {
				t.Fatalf("node %d returned at round %d, node 0 at %d", v, r, first)
			}
		}
	}
}

// TestConvergeSumManyOpsStress runs many consecutive aggregations and
// checks every one of them at every node.
func TestConvergeSumManyOpsStress(t *testing.T) {
	g := graph.MustRandomRegular(24, 3, 5)
	var mu sync.Mutex
	bad := 0
	_, err := Run(g, Config{}, func(ctx *Ctx) {
		tr := BuildBFSTree(ctx, 0)
		for op := uint64(0); op < 25; op++ {
			sum := converge(ctx, tr, op, []float64{float64(ctx.ID()) * float64(op+1)})
			if sum[0] != float64(g.N()*(g.N()-1))/2*float64(op+1) {
				mu.Lock()
				bad++
				mu.Unlock()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Errorf("%d aggregation results wrong", bad)
	}
}

// waveSum is an event-driven aggregation of vec over tr: a node sleeps
// in NextDelivery until its children's partial sums arrive, sends its own
// to its parent, sleeps again until the total comes down, and forwards
// it. Nodes enter and leave each wave in different rounds.
func waveSum(ctx *Ctx, tr *Tree, op uint64, vec []float64) []float64 {
	x := slices.Clone(vec)
	for got := 0; got < len(tr.Children); {
		for _, in := range ctx.NextDelivery() {
			if in.Payload[0] != tagUp || in.Payload[1] != op {
				panic(fmt.Sprintf("node %d: (tag %d, op %d) in the up wave of op %d", ctx.ID(), in.Payload[0], in.Payload[1], op))
			}
			for i, w := range in.Payload[2:] {
				x[i] += math.Float64frombits(w)
			}
			got++
		}
	}
	msg := func(tag uint64) Message {
		m := Message{tag, op}
		for _, f := range x {
			m = append(m, math.Float64bits(f))
		}
		return m
	}
	if tr.Parent != -1 {
		ctx.Send(tr.Parent, msg(tagUp))
		down := ctx.NextDelivery()
		if len(down) != 1 || down[0].Payload[0] != tagDown || down[0].Payload[1] != op {
			panic(fmt.Sprintf("node %d: expected the total of op %d, got %d message(s)", ctx.ID(), op, len(down)))
		}
		for i, w := range down[0].Payload[2:] {
			x[i] = math.Float64frombits(w)
		}
	}
	for _, ch := range tr.Children {
		ctx.Send(ch, msg(tagDown))
	}
	return x
}

// TestNextDeliveryWavesStress runs 25 consecutive waveSum waves, so
// every node sleeps and wakes in NextDelivery 50 times at staggered
// rounds, and checks every total at every node.
func TestNextDeliveryWavesStress(t *testing.T) {
	g := graph.MustRandomRegular(24, 3, 5)
	var mu sync.Mutex
	bad := 0
	_, err := Run(g, Config{}, func(ctx *Ctx) {
		tr := BuildBFSTree(ctx, 0)
		for op := uint64(0); op < 25; op++ {
			if waveSum(ctx, tr, op, []float64{float64(ctx.ID()) * float64(op+1)})[0] != float64(g.N()*(g.N()-1))/2*float64(op+1) {
				mu.Lock()
				bad++
				mu.Unlock()
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Errorf("%d wave totals wrong", bad)
	}
}

// TestRootChoiceIrrelevant: the tree primitives work from any root.
func TestRootChoiceIrrelevant(t *testing.T) {
	g := graph.Grid2D(4, 5)
	for _, root := range []int{0, 7, g.N() - 1} {
		var mu sync.Mutex
		ok := true
		_, err := Run(g, Config{}, func(ctx *Ctx) {
			tr := BuildBFSTree(ctx, root)
			sum := converge(ctx, tr, 1, []float64{1})
			if sum[0] != float64(g.N()) {
				mu.Lock()
				ok = false
				mu.Unlock()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("root %d: aggregation wrong", root)
		}
	}
}
