package congest_test

import (
	"hash/fnv"
	"sync"
	"testing"

	"smallbandwidth/internal/congest"
	"smallbandwidth/internal/graph"
	"smallbandwidth/internal/prng"
)

// trafficRun executes a deterministic mixed-traffic protocol (direct
// sends, queued bursts, staggered exits) and returns the Stats together
// with one FNV transcript hash per node covering the exact inbox
// sequence (round, sender, payload) the node observed. Two engines are
// behaviorally identical iff both the Stats and every transcript match.
func trafficRun(t *testing.T, g *graph.Graph, shards int) (congest.Stats, []uint64) {
	t.Helper()
	congest.SetForceShards(shards)
	defer congest.SetForceShards(0)

	hashes := make([]uint64, g.N())
	var mu sync.Mutex
	st, err := congest.Run(g, congest.Config{}, func(ctx *congest.Ctx) {
		h := fnv.New64a()
		word := func(x uint64) {
			var b [8]byte
			for i := range b {
				b[i] = byte(x >> (8 * i))
			}
			h.Write(b[:])
		}
		src := prng.New(uint64(ctx.ID()) * 0x9e3779b97f4a7c15)
		// Nodes exit at staggered rounds; sends stop two rounds earlier
		// so every queued message drains before the last node leaves.
		last := 24 + ctx.ID()%13
		for r := 0; r < last; r++ {
			if r < last-2 {
				for _, w := range ctx.Neighbors() {
					switch src.Intn(4) {
					case 0: // silence on this edge
					case 1:
						ctx.Send(int(w), congest.Message{congest.UserTagBase, uint64(r)})
					default:
						ctx.SendQueued(int(w), congest.Message{congest.UserTagBase + 1, uint64(r), uint64(ctx.ID())})
					}
				}
			}
			for _, in := range ctx.Next() {
				word(uint64(ctx.Round()))
				word(uint64(in.From))
				for _, x := range in.Payload {
					word(x)
				}
			}
		}
		mu.Lock()
		hashes[ctx.ID()] = h.Sum64()
		mu.Unlock()
	})
	if err != nil {
		t.Fatalf("shards=%d: %v", shards, err)
	}
	return *st, hashes
}

// TestStatsDeterministicAcrossShards is the engine-rework regression:
// sharded parallel delivery must leave Stats (rounds/messages/words/
// max width) and every node's delivered-message sequence byte-identical
// to the sequential engine on a fixed seed.
func TestStatsDeterministicAcrossShards(t *testing.T) {
	for _, mk := range []struct {
		name string
		g    *graph.Graph
	}{
		{"regular3", graph.MustRandomRegular(300, 3, 9)},
		{"gnp", graph.GNP(400, 0.02, 5)},
		{"grid", graph.Grid2D(17, 19)},
	} {
		serialStats, serialHashes := trafficRun(t, mk.g, 1)
		for _, shards := range []int{2, 7, 16} {
			st, hashes := trafficRun(t, mk.g, shards)
			if st != serialStats {
				t.Errorf("%s: shards=%d stats %+v != serial %+v", mk.name, shards, st, serialStats)
			}
			for v := range hashes {
				if hashes[v] != serialHashes[v] {
					t.Fatalf("%s: shards=%d node %d transcript diverged from serial engine", mk.name, shards, v)
				}
			}
		}
	}
}

// TestParallelLargeGraph10k drives the sharded delivery path on a
// 10⁴-node graph — BFS tree build, pipelined tree aggregation, and a
// flood phase — and is run under -race in CI to guard the lock-free
// delivery and batched wake-up against data races.
func TestParallelLargeGraph10k(t *testing.T) {
	congest.SetForceShards(8)
	defer congest.SetForceShards(0)

	g := graph.GNP(10000, 8.0/10000, 3)
	st, err := congest.Run(g, congest.Config{}, func(ctx *congest.Ctx) {
		if ctx.Degree() == 0 {
			return // GNP at this density may leave isolated nodes
		}
		for r := 0; r < 10; r++ {
			for _, w := range ctx.Neighbors() {
				ctx.Send(int(w), congest.Message{congest.UserTagBase, uint64(r)})
			}
			ctx.Next()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every edge endpoint has degree ≥ 1, so all 2m directed edges carry
	// a message in each of the 10 rounds: exact conservation.
	if want := int64(10 * 2 * g.M()); st.Messages != want {
		t.Fatalf("delivered %d messages, want %d", st.Messages, want)
	}
	if st.Rounds < 10 {
		t.Fatalf("expected >= 10 rounds, got %d", st.Rounds)
	}
}

// TestParallelTreeAggregation10k runs the full tree machinery (the
// derandomization backbone) on a connected 10⁴-node graph across many
// shards and checks the aggregate at every node.
func TestParallelTreeAggregation10k(t *testing.T) {
	congest.SetForceShards(8)
	defer congest.SetForceShards(0)

	g := graph.MustRandomRegular(10000, 4, 11)
	n := g.N()
	want := float64(n*(n-1)) / 2
	var mu sync.Mutex
	bad := 0
	_, err := congest.Run(g, congest.Config{}, func(ctx *congest.Ctx) {
		tr := congest.BuildBFSTree(ctx, 0)
		sum := congest.ConvergeSumLockstepTo(ctx, tr, 1, []float64{float64(ctx.ID())}, ctx.Round()+2*tr.Height)
		if diff := sum[0] - want; diff > 1e-6 || diff < -1e-6 {
			mu.Lock()
			bad++
			mu.Unlock()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("%d nodes computed a wrong aggregate", bad)
	}
}

// TestAbortUnwindsParallelEngine checks that a protocol violation on the
// sharded path aborts cleanly: every goroutine unwinds, workers exit,
// and the violation is reported.
func TestAbortUnwindsParallelEngine(t *testing.T) {
	congest.SetForceShards(4)
	defer congest.SetForceShards(0)

	g := graph.Grid2D(30, 34) // 1020 nodes
	_, err := congest.Run(g, congest.Config{}, func(ctx *congest.Ctx) {
		for r := 0; ; r++ {
			if ctx.ID() == 777 && r == 5 {
				ctx.Send(ctx.ID()+2, congest.Message{congest.UserTagBase}) // non-neighbor
			}
			for _, w := range ctx.Neighbors() {
				ctx.Send(int(w), congest.Message{congest.UserTagBase, uint64(r)})
			}
			ctx.Next()
		}
	})
	if err == nil {
		t.Fatal("expected a protocol-violation error")
	}
}

// TestMaxRoundsAbortParallel checks the round-cap abort on the sharded
// path: a livelocked protocol terminates with the cap error.
func TestMaxRoundsAbortParallel(t *testing.T) {
	congest.SetForceShards(4)
	defer congest.SetForceShards(0)

	g := graph.Cycle(1024)
	_, err := congest.Run(g, congest.Config{MaxRounds: 64}, func(ctx *congest.Ctx) {
		for {
			ctx.Next()
		}
	})
	if err == nil {
		t.Fatal("expected MaxRounds abort")
	}
}
