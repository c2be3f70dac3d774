package engine_test

import (
	"testing"

	"smallbandwidth/internal/engine"
	"smallbandwidth/internal/graph"
)

// TestPoolForEachPartitions checks that a forced multi-shard pool covers
// [0, n) with disjoint contiguous ranges and that ShardOf inverts the
// bounds.
func TestPoolForEachPartitions(t *testing.T) {
	engine.SetForceShards(7)
	defer engine.SetForceShards(0)
	p := engine.NewPool(100, 1)
	defer p.Close()
	if p.Shards() != 7 {
		t.Fatalf("forced 7 shards, got %d", p.Shards())
	}
	seen := make([]int, 100)
	p.ForEach(func(wid, lo, hi int) {
		for v := lo; v < hi; v++ {
			seen[v]++ // workers own disjoint ranges: no race
			if p.ShardOf(v) != wid {
				t.Errorf("ShardOf(%d) = %d, want %d", v, p.ShardOf(v), wid)
			}
		}
	})
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("endpoint %d covered %d times", v, c)
		}
	}
}

// scatterRef is the sequential reference: sender-ascending scan.
func scatterRef(n int, out [][]int) [][][2]int {
	in := make([][][2]int, n)
	for s := 0; s < n; s++ {
		for _, dst := range out[s] {
			in[dst] = append(in[dst], [2]int{s, dst})
		}
	}
	return in
}

// TestScatterMatchesSequentialAcrossShards drives Scatter with 1, 3, and
// 8 forced shards over an irregular traffic pattern and asserts each
// receiver sees exactly the sequential delivery order.
func TestScatterMatchesSequentialAcrossShards(t *testing.T) {
	const n = 97
	out := make([][]int, n)
	for s := 0; s < n; s++ {
		for k := 0; k < (s*7)%5; k++ {
			out[s] = append(out[s], (s*13+k*29)%n)
		}
	}
	want := scatterRef(n, out)
	for _, shards := range []int{1, 3, 8} {
		engine.SetForceShards(shards)
		p := engine.NewPool(n, 1)
		in := make([][][2]int, n)
		engine.Scatter(p,
			func(wid, src int, emit func(int, int)) {
				for _, dst := range out[src] {
					emit(dst, src)
				}
			},
			func(wid int, src, dst int32, item int) {
				if int(src) != item {
					t.Errorf("shards=%d: src %d != item %d", shards, src, item)
				}
				in[dst] = append(in[dst], [2]int{int(src), int(dst)})
			})
		p.Close()
		engine.SetForceShards(0)
		for v := range want {
			if len(in[v]) != len(want[v]) {
				t.Fatalf("shards=%d receiver %d: got %d items, want %d", shards, v, len(in[v]), len(want[v]))
			}
			for i := range want[v] {
				if in[v][i] != want[v][i] {
					t.Fatalf("shards=%d receiver %d item %d: got %v, want %v", shards, v, i, in[v][i], want[v][i])
				}
			}
		}
	}
}

// TestRunnerOnCompleteGraph runs blocking node programs on the complete
// graph, where every node exchanges with every other each round.
func TestRunnerOnCompleteGraph(t *testing.T) {
	const n, rounds = 48, 5
	st, err := engine.Run(graph.Complete(n), engine.Config{}, func(ctx *engine.Ctx) {
		if ctx.Degree() != n-1 {
			t.Errorf("node %d degree %d, want %d", ctx.ID(), ctx.Degree(), n-1)
		}
		for r := 0; r < rounds; r++ {
			for _, w := range ctx.Neighbors() {
				ctx.Send(int(w), engine.Message{uint64(r)})
			}
			got := len(ctx.Next())
			if r > 0 && got != n-1 {
				t.Errorf("node %d round %d received %d, want %d", ctx.ID(), r, got, n-1)
			}
		}
		ctx.Next() // drain the final round
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(rounds * n * (n - 1)); st.Messages != want {
		t.Fatalf("delivered %d messages, want %d", st.Messages, want)
	}
}

// TestChargeTraffic covers the bulk-aggregation accounting hook: charged
// messages, words, and widths must fold into the final Stats exactly as
// if the traffic had been delivered, sum across charging nodes, and
// reject invalid charges (negative counts, widths over the bandwidth
// cap) as model violations.
func TestChargeTraffic(t *testing.T) {
	const n = 4
	st, err := engine.Run(graph.Complete(n), engine.Config{}, func(ctx *engine.Ctx) {
		ctx.ChargeTraffic(10, 40, 4)
		ctx.ChargeTraffic(0, 0, 99) // zero charge: width not even validated
		ctx.Next()
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Messages != 10*n || st.Words != 40*n {
		t.Fatalf("charged traffic not folded: %+v", st)
	}
	if st.MaxMessageWords != 4 {
		t.Fatalf("charged width not folded: %+v", st)
	}

	if _, err := engine.Run(graph.Complete(2), engine.Config{}, func(ctx *engine.Ctx) {
		ctx.ChargeTraffic(-1, 0, 1)
	}); err == nil {
		t.Fatal("negative charge accepted")
	}
	if _, err := engine.Run(graph.Complete(2), engine.Config{MaxWords: 4}, func(ctx *engine.Ctx) {
		ctx.ChargeTraffic(1, 5, 5)
	}); err == nil {
		t.Fatal("charge wider than the bandwidth cap accepted")
	}
}
