package clique

import (
	"strings"
	"testing"

	"smallbandwidth/internal/engine"
	"smallbandwidth/internal/gf2"
	"smallbandwidth/internal/graph"
)

func TestSimExchangeBasics(t *testing.T) {
	s := NewSim(3, 4)
	defer s.Close()
	out := NewOut(3)
	out[0] = append(out[0], Directed{To: 1, Payload: Message{42}}, Directed{To: 2, Payload: Message{43, 44}})
	out[2] = append(out[2], Directed{To: 0, Payload: Message{7}})
	in, err := s.Exchange(out)
	if err != nil {
		t.Fatal(err)
	}
	m10, ok1 := Lookup(in[1], 0)
	m20, ok2 := Lookup(in[2], 0)
	m02, ok3 := Lookup(in[0], 2)
	if !ok1 || !ok2 || !ok3 || m10[0] != 42 || m20[1] != 44 || m02[0] != 7 {
		t.Error("messages misdelivered")
	}
	if s.Stats.Rounds != 1 || s.Stats.Messages != 3 || s.Stats.Words != 4 {
		t.Errorf("stats: %+v", s.Stats)
	}
}

func TestSimExchangeRejectsViolations(t *testing.T) {
	s := NewSim(2, 2)
	defer s.Close()
	out := NewOut(2)
	out[0] = append(out[0], Directed{To: 1, Payload: Message{1, 2, 3}})
	if _, err := s.Exchange(out); err == nil {
		t.Error("oversized message accepted")
	}
	out = NewOut(2)
	out[0] = append(out[0], Directed{To: 0, Payload: Message{1}})
	if _, err := s.Exchange(out); err == nil {
		t.Error("self-send accepted")
	}
	out = NewOut(2)
	out[0] = append(out[0], Directed{To: 1, Payload: Message{1}}, Directed{To: 1, Payload: Message{2}})
	if _, err := s.Exchange(out); err == nil {
		t.Error("double send to one destination accepted")
	}
}

func TestRouteAllBatchesChargedByLoad(t *testing.T) {
	// 3 messages through n = 2 exceeds one Lenzen batch: 2 batches = 4
	// rounds must be charged.
	s := NewSim(2, 4)
	out := make([][]Routed, 2)
	for i := 0; i < 3; i++ {
		out[0] = append(out[0], Routed{Dst: 1, Payload: Message{uint64(i)}})
	}
	in, err := s.RouteAll(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(in[1]) != 3 {
		t.Errorf("routed %d messages, want 3", len(in[1]))
	}
	if s.Stats.Rounds != 4 {
		t.Errorf("overloaded RouteAll cost %d rounds, want 4", s.Stats.Rounds)
	}

	s2 := NewSim(2, 4)
	out = make([][]Routed, 2)
	out[0] = []Routed{{Dst: 1, Payload: Message{9}}, {Dst: 1, Payload: Message{8}}}
	if _, err := s2.RouteAll(out); err != nil {
		t.Fatal(err)
	}
	if s2.Stats.Rounds != 2 {
		t.Errorf("in-capacity RouteAll cost %d rounds, want 2", s2.Stats.Rounds)
	}
	// Invalid destination is still an error.
	out = make([][]Routed, 2)
	out[0] = []Routed{{Dst: 5, Payload: Message{1}}}
	if _, err := s2.RouteAll(out); err == nil {
		t.Error("invalid destination accepted")
	}
}

func TestListColorCliqueSmall(t *testing.T) {
	cases := map[string]*graph.Graph{
		"single":   graph.Path(1),
		"edge":     graph.Path(2),
		"triangle": graph.Complete(3),
		"path":     graph.Path(10),
		"cycle":    graph.Cycle(12),
		"star":     graph.Star(9),
		"grid":     graph.Grid2D(4, 4),
		"clique":   graph.Complete(8),
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			inst := graph.DeltaPlusOneInstance(g)
			res, err := ListColorClique(inst, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := inst.VerifyColoring(res.Colors); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestListColorCliqueDense(t *testing.T) {
	// Dense enough that the local-finish condition U·Δ ≤ n does not fire
	// immediately, forcing derandomized iterations.
	g := graph.MustRandomRegular(24, 6, 3)
	inst := graph.DeltaPlusOneInstance(g)
	res, err := ListColorClique(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.VerifyColoring(res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Error("expected at least one derandomized iteration on a dense instance")
	}
	t.Logf("iterations=%d maxBatch=%d localFinishAt=%d rounds=%d",
		res.Iterations, res.MaxBatch, res.LocalFinishUncolored, res.Stats.Rounds)
}

// TestCliqueMultiBitBatch forces the Theorem 1.3 acceleration to fix two
// prefix bits per batch (4-path survival events, (2·2)-coin ProbConj) and
// checks the result is still a proper list coloring. The adaptive rule
// rarely engages on its own at unit-test sizes because the keep step
// overshoots the (n/4, n/Δ] window.
func TestCliqueMultiBitBatch(t *testing.T) {
	// Small on purpose: the 2-bit batch multiplies the seed length and
	// the ProbConj cost, and the machinery is identical at any size.
	g := graph.Cycle(8)
	inst := graph.DeltaPlusOneInstance(g)
	res, err := ListColorClique(inst, Options{ForceBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.VerifyColoring(res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.MaxBatch != 2 {
		t.Errorf("maxBatch = %d, want 2", res.MaxBatch)
	}
	// Same instance, single-bit: both must produce valid colorings and
	// the batched run should not need more derandemized iterations.
	single, err := ListColorClique(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("batched: rounds=%d iters=%d; single-bit: rounds=%d iters=%d",
		res.Stats.Rounds, res.Iterations, single.Stats.Rounds, single.Iterations)
}

func TestListColorCliqueRandomLists(t *testing.T) {
	g := graph.GNP(20, 0.4, 11)
	inst, err := graph.RandomListInstance(g, 48, 1, 6)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ListColorClique(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.VerifyColoring(res.Colors); err != nil {
		t.Fatal(err)
	}
}

func TestListColorCliqueDeterministic(t *testing.T) {
	g := graph.MustRandomRegular(20, 5, 2)
	inst := graph.DeltaPlusOneInstance(g)
	r1, err := ListColorClique(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ListColorClique(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range r1.Colors {
		if r1.Colors[v] != r2.Colors[v] {
			t.Fatal("clique coloring not deterministic")
		}
	}
	if r1.Stats != r2.Stats {
		t.Errorf("stats differ: %+v vs %+v", r1.Stats, r2.Stats)
	}
}

func TestCliqueInvalidInstance(t *testing.T) {
	g := graph.Path(3)
	inst := graph.DeltaPlusOneInstance(g)
	inst.Lists[0] = inst.Lists[0][:1]
	if _, err := ListColorClique(inst, Options{}); err == nil ||
		!strings.Contains(err.Error(), "list") {
		t.Errorf("invalid instance accepted: %v", err)
	}
}

func TestLeafCountsAndSubtrees(t *testing.T) {
	// Colors with 2-bit batch at bit positions 3..2: 0b1100 = path 11, etc.
	cands := []uint32{0b0000, 0b0100, 0b1000, 0b1100, 0b1101}
	counts := leafCounts(cands, 3, 2)
	want := []uint64{1, 1, 1, 2}
	for p, w := range want {
		if counts[p] != w {
			t.Fatalf("K(%b) = %d, want %d (counts %v)", p, counts[p], w, counts)
		}
	}
	if s := subtreeCount(counts, 2, 0, 0); s != 5 {
		t.Errorf("S(ε) = %d, want 5", s)
	}
	if s := subtreeCount(counts, 2, 1, 1); s != 3 {
		t.Errorf("S(1) = %d, want 3", s)
	}
	if s := subtreeCount(counts, 2, 0b11, 2); s != 2 {
		t.Errorf("S(11) = %d, want 2", s)
	}
	filtered := filterByPath(append([]uint32(nil), cands...), 3, 2, 0b11)
	if len(filtered) != 2 || filtered[0] != 0b1100 {
		t.Errorf("filterByPath wrong: %v", filtered)
	}
}

// TestEdgeExpAllocFree: with both endpoints' path-coin tables built, a
// conflict edge's evaluation over a 2-bit batch (four-coin survival
// events, some negated) allocates nothing.
func TestEdgeExpAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops cached objects under -race; allocation counts are meaningless")
	}
	const w, b = 2, 9
	fam := gf2.MustFamily(w*b, 2)
	u := &clqNode{id: 3, cands: []uint32{0b0000, 0b0100, 0b1000, 0b1100, 0b1101}, conflict: []int32{8}}
	v := &clqNode{id: 8, cands: []uint32{0b0001, 0b0101, 0b1100, 0b1110}, conflict: []int32{3}}
	st := &cliqueRun{nodes: make([]*clqNode, 9), events: make([]gf2.CoinEvent, 2*w)}
	for _, nd := range []*clqNode{u, v} {
		st.nodes[nd.id] = nd
		nd.counts = leafCounts(nd.cands, 3, w)
		if err := nd.buildPathCoins(fam, b, w); err != nil {
			t.Fatal(err)
		}
	}
	u.nbrK = v.counts
	bs := gf2.NewBasis()
	bs.FixBit(0, true)
	bs.FixBit(5, false)
	if e := st.edgeExp(bs, u, 0, w); e <= 0 {
		t.Fatalf("edge expectation %v, want > 0", e)
	}
	if n := testing.AllocsPerRun(100, func() { st.edgeExp(bs, u, 0, w) }); n != 0 {
		t.Fatalf("edgeExp allocates %v per call", n)
	}
}

// TestCliqueFasterThanCONGESTShape: the clique run should use far fewer
// rounds than D·logn·log²Δ (its whole point).
func TestCliqueRoundsModest(t *testing.T) {
	g := graph.MustRandomRegular(32, 4, 13)
	inst := graph.DeltaPlusOneInstance(g)
	res, err := ListColorClique(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Generous cap: O(logC·logΔ·iterations) with small constants.
	if res.Stats.Rounds > 4000 {
		t.Errorf("clique used %d rounds, far above expectation", res.Stats.Rounds)
	}
	t.Logf("clique rounds: %d", res.Stats.Rounds)
}

// TestCliqueStatsDeterministicAcrossShards is the clique port of the
// engine-rework regression: the sharded Exchange/RouteAll delivery must
// leave Stats and the produced coloring bit-identical to the sequential
// (workers=1) simulator. Run under -race in CI to guard the lock-free
// scatter phases.
func TestCliqueStatsDeterministicAcrossShards(t *testing.T) {
	g := graph.MustRandomRegular(28, 5, 17)
	inst := graph.DeltaPlusOneInstance(g)
	gl := graph.GNP(24, 0.3, 9)
	instL, err := graph.RandomListInstance(gl, 64, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	for name, inst := range map[string]*graph.Instance{"regular5": inst, "gnplists": instL} {
		t.Run(name, func(t *testing.T) {
			run := func(shards int) *Result {
				engine.SetForceShards(shards)
				defer engine.SetForceShards(0)
				res, err := ListColorClique(inst, Options{})
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				return res
			}
			serial := run(1)
			for _, shards := range []int{3, 8} {
				res := run(shards)
				if res.Stats != serial.Stats {
					t.Errorf("shards=%d stats %+v != serial %+v", shards, res.Stats, serial.Stats)
				}
				if res.Iterations != serial.Iterations || res.MaxBatch != serial.MaxBatch ||
					res.LocalFinishUncolored != serial.LocalFinishUncolored {
					t.Errorf("shards=%d trajectory diverged from serial", shards)
				}
				for v := range serial.Colors {
					if res.Colors[v] != serial.Colors[v] {
						t.Fatalf("shards=%d node %d color %d != serial %d", shards, v, res.Colors[v], serial.Colors[v])
					}
				}
			}
		})
	}
}

// TestRouteAllDeterministicAcrossShards checks the Lenzen-routing
// primitive alone: identical receipt sequences and Stats at 1 vs many
// workers.
func TestRouteAllDeterministicAcrossShards(t *testing.T) {
	const n = 30
	build := func() [][]Routed {
		out := make([][]Routed, n)
		for v := 0; v < n; v++ {
			for k := 0; k <= (v*5)%4; k++ {
				out[v] = append(out[v], Routed{Dst: (v*11 + k*7) % n, Payload: Message{uint64(v), uint64(k)}})
			}
		}
		return out
	}
	run := func(shards int) ([][]Received, Stats) {
		engine.SetForceShards(shards)
		defer engine.SetForceShards(0)
		s := NewSim(n, 4)
		defer s.Close()
		in, err := s.RouteAll(build())
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return in, s.Stats
	}
	serialIn, serialStats := run(1)
	for _, shards := range []int{3, 8} {
		in, st := run(shards)
		if st != serialStats {
			t.Errorf("shards=%d stats %+v != serial %+v", shards, st, serialStats)
		}
		for v := range serialIn {
			if len(in[v]) != len(serialIn[v]) {
				t.Fatalf("shards=%d node %d got %d messages, want %d", shards, v, len(in[v]), len(serialIn[v]))
			}
			for i := range serialIn[v] {
				a, b := in[v][i], serialIn[v][i]
				if a.Src != b.Src || len(a.Payload) != len(b.Payload) || a.Payload[0] != b.Payload[0] || a.Payload[1] != b.Payload[1] {
					t.Fatalf("shards=%d node %d message %d diverged", shards, v, i)
				}
			}
		}
	}
}
