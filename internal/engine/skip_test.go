package engine_test

import (
	"sync"
	"testing"

	"smallbandwidth/internal/engine"
	"smallbandwidth/internal/graph"
)

// TestSkipUntilCountsRoundsLikeNextLoop: a SkipUntil sleep must leave the
// run's Stats bit-identical to ticking the same rounds through Next.
func TestSkipUntilCountsRoundsLikeNextLoop(t *testing.T) {
	g := graph.Cycle(32)
	run := func(skip bool) engine.Stats {
		t.Helper()
		st, err := engine.Run(g, engine.Config{}, func(ctx *engine.Ctx) {
			for r := 0; r < 3; r++ {
				for _, w := range ctx.Neighbors() {
					ctx.Send(int(w), engine.Message{1, uint64(r)})
				}
				ctx.Next()
			}
			if skip {
				if in := ctx.SkipUntil(100); len(in) != 0 {
					panic("unexpected delivery while skipping")
				}
			} else {
				for ctx.Round() < 100 {
					if in := ctx.Next(); len(in) != 0 {
						panic("unexpected delivery while spinning")
					}
				}
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		return *st
	}
	spin, skipped := run(false), run(true)
	if spin != skipped {
		t.Fatalf("SkipUntil stats %+v differ from Next-loop stats %+v", skipped, spin)
	}
	if spin.Rounds != 100 {
		t.Fatalf("expected 100 rounds, got %d", spin.Rounds)
	}
}

// TestSkipUntilReturnsDeliveriesInOrder: messages delivered while a node
// sleeps are returned by SkipUntil exactly as consecutive Next calls
// would have concatenated them.
func TestSkipUntilReturnsDeliveriesInOrder(t *testing.T) {
	g := graph.Path(2)
	var got []uint64
	_, err := engine.Run(g, engine.Config{}, func(ctx *engine.Ctx) {
		if ctx.ID() == 0 {
			for i := 0; i < 5; i++ {
				ctx.SendQueued(1, engine.Message{1, uint64(i)})
			}
			ctx.SkipUntil(8)
			return
		}
		for _, in := range ctx.SkipUntil(8) {
			got = append(got, in.Payload[1])
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 {
		t.Fatalf("got %d messages, want 5", len(got))
	}
	for i, v := range got {
		if v != uint64(i) {
			t.Fatalf("message %d out of order: %d", i, v)
		}
	}
}

// disjointUnion builds a graph of several components: one cycle, one
// path, and isolated nodes.
func disjointUnion() *graph.Graph {
	b := graph.NewBuilder(20)
	for i := 0; i < 8; i++ {
		b.MustAddEdge(i, (i+1)%8) // cycle on 0..7
	}
	for i := 8; i < 14; i++ {
		b.MustAddEdge(i, i+1) // path on 8..14
	}
	return b.Build() // 15..19 isolated
}

// TestDomainsComposeInParallel: a disconnected run's Stats are the
// parallel composition of its components — max rounds, summed traffic —
// and RunWithDomains exposes the per-component breakdown.
func TestDomainsComposeInParallel(t *testing.T) {
	g := disjointUnion()
	var mu sync.Mutex
	rounds := map[int]int{}
	st, doms, err := engine.RunWithDomains(g, engine.Config{}, func(ctx *engine.Ctx) {
		// Components run different numbers of rounds.
		limit := 5
		if ctx.ID() < 8 {
			limit = 40
		} else if ctx.ID() < 15 {
			limit = 17
		}
		for r := 0; r < limit; r++ {
			for _, w := range ctx.Neighbors() {
				ctx.Send(int(w), engine.Message{uint64(r + 1)})
			}
			ctx.Next()
		}
		mu.Lock()
		if ctx.Round() > rounds[ctx.ID()] {
			rounds[ctx.ID()] = ctx.Round()
		}
		mu.Unlock()
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Rounds != 40 {
		t.Fatalf("run rounds %d, want max-over-components 40", st.Rounds)
	}
	// cycle: 40 rounds × 16 directed edges; path: 17 × 12; isolated: 0.
	if want := int64(40*16 + 17*12); st.Messages != want {
		t.Fatalf("messages %d, want %d", st.Messages, want)
	}
	if len(doms) != 7 {
		t.Fatalf("expected 7 domains, got %d", len(doms))
	}
	if doms[0].Root != 0 || doms[0].Stats.Rounds != 40 || doms[0].Stats.Messages != 40*16 {
		t.Fatalf("cycle domain stats wrong: %+v", doms[0])
	}
	if doms[1].Root != 8 || doms[1].Stats.Rounds != 17 || doms[1].Stats.Messages != 17*12 {
		t.Fatalf("path domain stats wrong: %+v", doms[1])
	}
	for i := 2; i < 7; i++ {
		if doms[i].Stats.Messages != 0 {
			t.Fatalf("isolated domain %d delivered messages: %+v", i, doms[i])
		}
	}
}

// TestDomainsDeterministicAcrossShards: the domain-split engine with
// sleeps stays bit-deterministic whatever the worker count.
func TestDomainsDeterministicAcrossShards(t *testing.T) {
	g := disjointUnion()
	run := func(shards int) engine.Stats {
		t.Helper()
		engine.SetForceShards(shards)
		defer engine.SetForceShards(0)
		st, err := engine.Run(g, engine.Config{}, func(ctx *engine.Ctx) {
			if ctx.Degree() == 0 {
				ctx.SkipUntil(25)
				return
			}
			// Queue a burst (drains one per edge per round), tick a few
			// rounds, then sleep-collect the backlog and resynchronize.
			for i := 0; i < 8; i++ {
				for _, w := range ctx.Neighbors() {
					ctx.SendQueued(int(w), engine.Message{uint64(ctx.ID()), uint64(i)})
				}
			}
			for r := 0; r < 3; r++ {
				ctx.Next()
			}
			for _, in := range ctx.SkipUntil(12) {
				_ = in
			}
			ctx.SkipUntil(25)
		})
		if err != nil {
			t.Fatal(err)
		}
		return *st
	}
	base := run(1)
	for _, shards := range []int{2, 5} {
		if st := run(shards); st != base {
			t.Fatalf("shards=%d stats %+v != serial %+v", shards, st, base)
		}
	}
}
