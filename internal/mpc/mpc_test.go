package mpc

import (
	"sort"
	"testing"

	"smallbandwidth/internal/engine"
	"smallbandwidth/internal/graph"
	"smallbandwidth/internal/prng"
)

func TestRuntimeEnforcement(t *testing.T) {
	rt, err := NewRuntime(4, 100)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if err := rt.CheckMemory([]int{50, 100, 3, 0}); err != nil {
		t.Errorf("in-budget memory rejected: %v", err)
	}
	if err := rt.CheckMemory([]int{101}); err == nil {
		t.Error("over-budget memory accepted")
	}
	if err := rt.ChargeRound([]int{100, 100, 100, 100}); err != nil {
		t.Errorf("in-budget round rejected: %v", err)
	}
	if err := rt.ChargeRound([]int{101, 0, 0, 0}); err == nil {
		t.Error("over-budget IO accepted")
	}
	if rt.Rounds != 2 {
		t.Errorf("rounds = %d, want 2", rt.Rounds)
	}
	if rt.HighWaterMemory != 100 || rt.HighWaterIO != 100 {
		t.Errorf("high-water wrong: %+v", rt)
	}
	if _, err := NewRuntime(0, 100); err == nil {
		t.Error("zero machines accepted")
	}
}

func TestAggDepthGrowsWithMachines(t *testing.T) {
	rtSmall, _ := NewRuntime(4, 256)  // fan 16
	rtBig, _ := NewRuntime(5000, 256) // fan 16, needs more levels
	if rtSmall.AggDepth() >= rtBig.AggDepth() {
		t.Errorf("depth %d vs %d", rtSmall.AggDepth(), rtBig.AggDepth())
	}
}

func randomRecs(n int, seed uint64) []Rec {
	src := prng.New(seed)
	recs := make([]Rec, n)
	for i := range recs {
		recs[i] = Rec{src.Uint64() % 50, src.Uint64() % 50, src.Uint64() % 50}
	}
	return recs
}

func TestSortDistributed(t *testing.T) {
	rt, _ := NewRuntime(8, 1024)
	defer rt.Close()
	recs := randomRecs(500, 3)
	d, err := NewDist(rt, recs)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Sort(rt); err != nil {
		t.Fatal(err)
	}
	if !d.IsSorted() {
		t.Fatal("not sorted")
	}
	if d.Len() != 500 {
		t.Fatalf("lost records: %d", d.Len())
	}
	// Multiset preserved.
	got := d.All()
	want := append([]Rec(nil), recs...)
	sort.Slice(want, func(i, j int) bool { return recLess(want[i], want[j]) })
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: %v != %v", i, got[i], want[i])
		}
	}
	if rt.Rounds == 0 || rt.Rounds > 10 {
		t.Errorf("sort took %d rounds, want O(1)", rt.Rounds)
	}
}

func TestPrefixSums(t *testing.T) {
	rt, _ := NewRuntime(5, 512)
	defer rt.Close()
	recs := make([]Rec, 100)
	for i := range recs {
		recs[i] = Rec{uint64(i), 0, 1} // value 1 each → prefix = index+1
	}
	d, err := NewDist(rt, recs)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Sort(rt); err != nil {
		t.Fatal(err)
	}
	if err := d.PrefixSums(rt, func(a, b uint64) uint64 { return a + b }, 0); err != nil {
		t.Fatal(err)
	}
	all := d.All()
	for i, r := range all {
		if r[2] != uint64(i+1) {
			t.Fatalf("prefix at %d = %d, want %d", i, r[2], i+1)
		}
	}
}

func TestGroupRanksAndSizes(t *testing.T) {
	rt, _ := NewRuntime(4, 512)
	defer rt.Close()
	var recs []Rec
	groupSize := map[uint64]int{3: 5, 7: 1, 9: 8}
	for k, sz := range groupSize {
		for i := 0; i < sz; i++ {
			recs = append(recs, Rec{k, uint64(i * 13 % 7), 0})
		}
	}
	d, err := NewDist(rt, recs)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Sort(rt); err != nil {
		t.Fatal(err)
	}
	if err := d.GroupRanks(rt); err != nil {
		t.Fatal(err)
	}
	seen := map[uint64]map[uint64]bool{}
	for _, r := range d.All() {
		if seen[r[0]] == nil {
			seen[r[0]] = map[uint64]bool{}
		}
		if seen[r[0]][r[2]] {
			t.Fatalf("duplicate rank %d in group %d", r[2], r[0])
		}
		seen[r[0]][r[2]] = true
		if int(r[2]) >= groupSize[r[0]] {
			t.Fatalf("rank %d out of range for group %d", r[2], r[0])
		}
	}
	// Sizes.
	d2, _ := NewDist(rt, recs)
	if err := d2.Sort(rt); err != nil {
		t.Fatal(err)
	}
	if err := d2.GroupSizes(rt); err != nil {
		t.Fatal(err)
	}
	for _, r := range d2.All() {
		if int(r[2]) != groupSize[r[0]] {
			t.Fatalf("group %d size %d, want %d", r[0], r[2], groupSize[r[0]])
		}
	}
}

func TestSetDifference(t *testing.T) {
	rt, _ := NewRuntime(4, 512)
	defer rt.Close()
	a := []Rec{{1, 10, 0}, {1, 11, 0}, {2, 10, 0}, {2, 12, 0}}
	b := []Rec{{1, 10, 0}, {1, 10, 0}, {2, 12, 0}, {3, 11, 0}}
	res, err := SetDifference(rt, a, b)
	if err != nil {
		t.Fatal(err)
	}
	expect := map[Rec]bool{
		{1, 10, 0}: true,  // in B₁ (twice, multiset)
		{1, 11, 0}: false, // not in B₁
		{2, 10, 0}: false, // 10 only in B₁, not B₂
		{2, 12, 0}: true,
	}
	for k, want := range expect {
		if res[k] != want {
			t.Errorf("membership of %v = %v, want %v", k, res[k], want)
		}
	}
}

func TestListColorMPCLinear(t *testing.T) {
	cases := map[string]*graph.Graph{
		"path":    graph.Path(12),
		"cycle":   graph.Cycle(16),
		"star":    graph.Star(10),
		"grid":    graph.Grid2D(4, 5),
		"regular": graph.MustRandomRegular(24, 4, 5),
		"single":  graph.Path(1),
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			inst := graph.DeltaPlusOneInstance(g)
			res, err := ListColorMPC(inst, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if err := inst.VerifyColoring(res.Colors); err != nil {
				t.Fatal(err)
			}
			if res.HighWaterMemory > res.S {
				t.Errorf("memory high-water %d > S = %d", res.HighWaterMemory, res.S)
			}
			if res.HighWaterIO > res.S {
				t.Errorf("IO high-water %d > S = %d", res.HighWaterIO, res.S)
			}
		})
	}
}

func TestListColorMPCSublinear(t *testing.T) {
	g := graph.MustRandomRegular(32, 4, 8)
	inst := graph.DeltaPlusOneInstance(g)
	res, err := ListColorMPC(inst, Options{Sublinear: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.VerifyColoring(res.Colors); err != nil {
		t.Fatal(err)
	}
	if res.S >= 8*g.N() {
		t.Errorf("sublinear S = %d not sublinear for n = %d", res.S, g.N())
	}
	if res.FinishedLocally {
		t.Error("sublinear run must not ship the residual to one machine")
	}
	t.Logf("sublinear: S=%d machines=%d rounds=%d iterations=%d",
		res.S, res.Machines, res.Rounds, res.Iterations)
}

func TestListColorMPCRandomLists(t *testing.T) {
	g := graph.GNP(24, 0.25, 4)
	inst, err := graph.RandomListInstance(g, 64, 2, 9)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ListColorMPC(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.VerifyColoring(res.Colors); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaPlusOneMPCObservation41(t *testing.T) {
	g := graph.MustRandomRegular(20, 4, 7)
	res, err := DeltaPlusOneMPC(g, Options{})
	if err != nil {
		t.Fatal(err)
	}
	u32 := res.Colors
	if !g.IsProperColoring(u32) {
		t.Fatal("Observation 4.1 produced an improper coloring")
	}
	for v, c := range u32 {
		if int(c) > g.Degree(v) {
			t.Errorf("node %d color %d outside its degree+1 list", v, c)
		}
	}
}

func TestListColorMPCDeterministic(t *testing.T) {
	g := graph.Grid2D(4, 4)
	inst := graph.DeltaPlusOneInstance(g)
	r1, err := ListColorMPC(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := ListColorMPC(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for v := range r1.Colors {
		if r1.Colors[v] != r2.Colors[v] {
			t.Fatal("MPC coloring not deterministic")
		}
	}
	if r1.Rounds != r2.Rounds {
		t.Errorf("rounds differ: %d vs %d", r1.Rounds, r2.Rounds)
	}
}

func TestMPCInvalidInstance(t *testing.T) {
	g := graph.Path(3)
	inst := graph.DeltaPlusOneInstance(g)
	inst.Lists[0] = nil
	if _, err := ListColorMPC(inst, Options{}); err == nil {
		t.Error("invalid instance accepted")
	}
}

func TestMPCTooSmallMemoryFails(t *testing.T) {
	g := graph.Complete(16)
	inst := graph.DeltaPlusOneInstance(g)
	// S too small to even host one node's edges+list in the linear layout.
	if _, err := ListColorMPC(inst, Options{S: 16}); err == nil {
		t.Error("impossible memory budget accepted")
	}
}

// TestMPCStatsDeterministicAcrossShards is the MPC port of the
// engine-rework regression: Rounds, HighWaterMemory, and HighWaterIO —
// every figure the runtime charges — must be bit-identical at workers=1
// and workers=N, in both memory regimes. Run under -race in CI.
func TestMPCStatsDeterministicAcrossShards(t *testing.T) {
	g := graph.MustRandomRegular(32, 4, 21)
	inst := graph.DeltaPlusOneInstance(g)
	for _, sub := range []bool{false, true} {
		name := "linear"
		if sub {
			name = "sublinear"
		}
		t.Run(name, func(t *testing.T) {
			run := func(shards int) *Result {
				engine.SetForceShards(shards)
				defer engine.SetForceShards(0)
				res, err := ListColorMPC(inst, Options{Sublinear: sub})
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				return res
			}
			serial := run(1)
			for _, shards := range []int{3, 8} {
				res := run(shards)
				if res.Rounds != serial.Rounds || res.HighWaterMemory != serial.HighWaterMemory ||
					res.HighWaterIO != serial.HighWaterIO || res.Iterations != serial.Iterations {
					t.Errorf("shards=%d resources (%d,%d,%d,%d) != serial (%d,%d,%d,%d)",
						shards, res.Rounds, res.HighWaterMemory, res.HighWaterIO, res.Iterations,
						serial.Rounds, serial.HighWaterMemory, serial.HighWaterIO, serial.Iterations)
				}
				for v := range serial.Colors {
					if res.Colors[v] != serial.Colors[v] {
						t.Fatalf("shards=%d node %d color diverged", shards, v)
					}
				}
			}
		})
	}
}

// TestToolsDeterministicAcrossShards drives the record-moving tools
// (Sort, GroupRanks, GroupSizes, PrefixSums) at 1 vs many workers and
// asserts identical record placement and identical charged resources —
// the IO vectors folded into the shard workers must merge to exactly the
// sequential accounting.
func TestToolsDeterministicAcrossShards(t *testing.T) {
	recs := randomRecs(3000, 12)
	run := func(shards int) ([][]Rec, int, int, int) {
		engine.SetForceShards(shards)
		defer engine.SetForceShards(0)
		rt, err := NewRuntime(9, 4096)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		d, err := NewDist(rt, recs)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Sort(rt); err != nil {
			t.Fatal(err)
		}
		if !d.IsSorted() {
			t.Fatalf("shards=%d: not sorted", shards)
		}
		if err := d.GroupRanks(rt); err != nil {
			t.Fatal(err)
		}
		if err := d.GroupSizes(rt); err != nil {
			t.Fatal(err)
		}
		if err := d.PrefixSums(rt, func(a, b uint64) uint64 { return a + b }, 0); err != nil {
			t.Fatal(err)
		}
		parts := make([][]Rec, len(d.Parts))
		for i, p := range d.Parts {
			parts[i] = append([]Rec(nil), p...)
		}
		return parts, rt.Rounds, rt.HighWaterMemory, rt.HighWaterIO
	}
	serialParts, sr, sm, sio := run(1)
	for _, shards := range []int{2, 4, 8} {
		parts, r, m, io := run(shards)
		if r != sr || m != sm || io != sio {
			t.Errorf("shards=%d resources (%d,%d,%d) != serial (%d,%d,%d)", shards, r, m, io, sr, sm, sio)
		}
		for i := range serialParts {
			if len(parts[i]) != len(serialParts[i]) {
				t.Fatalf("shards=%d machine %d holds %d records, want %d", shards, i, len(parts[i]), len(serialParts[i]))
			}
			for j := range serialParts[i] {
				if parts[i][j] != serialParts[i][j] {
					t.Fatalf("shards=%d machine %d record %d = %v, want %v", shards, i, j, parts[i][j], serialParts[i][j])
				}
			}
		}
	}
}

// TestGroupSizesSpanningManyMachines pins the boundary-carry size
// computation on a group stretching across most machines.
func TestGroupSizesSpanningManyMachines(t *testing.T) {
	rt, _ := NewRuntime(6, 4096)
	defer rt.Close()
	var recs []Rec
	for i := 0; i < 100; i++ {
		recs = append(recs, Rec{7, uint64(i), 0})
	}
	recs = append(recs, Rec{1, 0, 0}, Rec{9, 0, 0}, Rec{9, 1, 0})
	d, err := NewDist(rt, recs)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Sort(rt); err != nil {
		t.Fatal(err)
	}
	if err := d.GroupSizes(rt); err != nil {
		t.Fatal(err)
	}
	want := map[uint64]uint64{1: 1, 7: 100, 9: 2}
	for _, r := range d.All() {
		if r[2] != want[r[0]] {
			t.Fatalf("group %d size %d, want %d", r[0], r[2], want[r[0]])
		}
	}
}

// Len returns the total number of records.
func (d *Dist) Len() int {
	n := 0
	for _, p := range d.Parts {
		n += len(p)
	}
	return n
}

// All returns all records in machine order (a real MPC algorithm would
// never gather like this).
func (d *Dist) All() []Rec {
	var out []Rec
	for _, p := range d.Parts {
		out = append(out, p...)
	}
	return out
}
