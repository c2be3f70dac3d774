package netdecomp

import (
	"testing"

	"smallbandwidth/internal/core"
	"smallbandwidth/internal/engine"
	"smallbandwidth/internal/graph"
)

// TestChargedRoundsExchangeOnlyBetweenClasses pins the Corollary 1.2
// accounting on a fixed instance: construction rounds, plus κ·rounds per
// class, plus exactly one global exchange round between consecutive
// classes — NOT after the final class (the old code charged classes
// exchange rounds, one too many).
func TestChargedRoundsExchangeOnlyBetweenClasses(t *testing.T) {
	inst := graph.DeltaPlusOneInstance(graph.Grid2D(6, 6))
	res, err := ListColorDecomposed(inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Decomp.Colors < 2 {
		t.Fatalf("instance too easy: %d color class(es) cannot exercise the between-classes charge", res.Decomp.Colors)
	}
	kappa := res.Decomp.Congestion
	if kappa < 1 {
		kappa = 1
	}
	want := res.Decomp.ChargedRound + (res.Decomp.Colors - 1)
	for _, cr := range res.ClassRounds {
		want += cr * kappa
	}
	if res.ChargedRounds != want {
		t.Errorf("ChargedRounds = %d, want construction %d + Σ κ·classRounds + (α−1) = %d",
			res.ChargedRounds, res.Decomp.ChargedRound, want)
	}
}

// TestIdleDeepClustersNotCharged is the cost-model regression for the
// decomposition builder: the decision broadcast of a proposal iteration
// must be charged over the iteration's *target* clusters only. The old
// model charged the max tree depth over all surviving clusters, so a
// deep cluster sitting idle (no proposals) inflated every other
// cluster's iterations. The hook records both depths per iteration; on a
// graph mixing deep path clusters with shallow dense pockets the
// old-model total must be strictly larger.
func TestIdleDeepClustersNotCharged(t *testing.T) {
	oldModel, newModel, iters := 0, 0, 0
	chargeHook = func(active, global int) {
		newModel += 2 + 2*(active+1)
		oldModel += 2 + 2*(global+1)
		iters++
	}
	defer func() { chargeHook = nil }()

	g := graph.Barbell(8, 64) // two K8 pockets joined by a 64-node path
	d, err := Build(g)
	if err != nil {
		t.Fatal(err)
	}
	if d.ChargedRound != newModel {
		t.Errorf("ChargedRound = %d, hook-accumulated active-target model = %d", d.ChargedRound, newModel)
	}
	if oldModel <= newModel {
		t.Errorf("old all-clusters model (%d) not larger than active-target model (%d) over %d iterations — instance has no idle deep cluster, pick a better one",
			oldModel, newModel, iters)
	}
	t.Logf("charged %d rounds over %d iterations (old model: %d, −%.0f%%)",
		newModel, iters, oldModel, 100*float64(oldModel-newModel)/float64(oldModel))
}

// TestDecomposedListsNotAliased asserts the caller's inst.Lists survive a
// full Corollary 1.2 run byte-identical: per-class sub-instances copy the
// working lists at the boundary instead of sharing backing arrays with
// the in-place-shifting graph.RemoveColor.
func TestDecomposedListsNotAliased(t *testing.T) {
	g := graph.Barbell(5, 16)
	inst, err := graph.RandomListInstance(g, 64, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := make([][]uint32, len(inst.Lists))
	for v, l := range inst.Lists {
		snapshot[v] = append([]uint32(nil), l...)
	}
	res, err := ListColorDecomposed(inst, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.VerifyColoring(res.Colors); err != nil {
		t.Fatal(err)
	}
	for v, l := range inst.Lists {
		if len(l) != len(snapshot[v]) {
			t.Fatalf("node %d list length changed: %d -> %d", v, len(snapshot[v]), len(l))
		}
		for i := range l {
			if l[i] != snapshot[v][i] {
				t.Fatalf("node %d list mutated at index %d: %d -> %d", v, i, snapshot[v][i], l[i])
			}
		}
	}
}

// TestBatchedMatchesSequentialPipeline runs the batched per-class
// pipeline next to the seed-equivalent sequential one: both must produce
// proper colorings, agree on the decomposition, and report class rounds
// of the same parallel-composition shape (the values may differ — the
// batched run derives parameters from the class union, the sequential
// one per component).
func TestBatchedMatchesSequentialPipeline(t *testing.T) {
	for _, g := range []*graph.Graph{
		graph.Cycle(48),
		graph.Grid2D(6, 7),
		graph.Barbell(6, 12),
	} {
		inst := graph.DeltaPlusOneInstance(g)
		batched, err := ListColorDecomposed(inst, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		seq, err := ListColorDecomposedSeq(inst, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*DecompResult{batched, seq} {
			if err := inst.VerifyColoring(r.Colors); err != nil {
				t.Fatal(err)
			}
		}
		if batched.Decomp.Colors != seq.Decomp.Colors || len(batched.ClassRounds) != len(seq.ClassRounds) {
			t.Errorf("pipelines disagree on the decomposition: %d/%d classes",
				batched.Decomp.Colors, seq.Decomp.Colors)
		}
		for c := range batched.ClassStats {
			if batched.ClassStats[c].Messages != seq.ClassStats[c].Messages && batched.ClassStats[c].Messages == 0 {
				t.Errorf("class %d: batched run delivered no messages", c+1)
			}
		}
	}
}

// TestDecompDeterministicAcrossShards is the Corollary 1.2 lockdown on
// the shared engine: Colors, per-class Stats, ClassRounds, and
// ChargedRounds must be bit-identical whether the engine delivers with 1
// worker or many. Run under -race in CI.
func TestDecompDeterministicAcrossShards(t *testing.T) {
	// Disconnected and irregular on purpose: components + clusters of many
	// sizes land in one batched run per class.
	g := graph.GNP(700, 3.0/700, 17)
	inst := graph.DeltaPlusOneInstance(g)

	run := func(shards int) *DecompResult {
		t.Helper()
		engine.SetForceShards(shards)
		defer engine.SetForceShards(0)
		res, err := ListColorDecomposed(inst, core.Options{})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		return res
	}

	base := run(1)
	if err := inst.VerifyColoring(base.Colors); err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 7} {
		res := run(shards)
		if res.ChargedRounds != base.ChargedRounds {
			t.Errorf("shards=%d: ChargedRounds %d != serial %d", shards, res.ChargedRounds, base.ChargedRounds)
		}
		if res.Messages != base.Messages || res.Words != base.Words {
			t.Errorf("shards=%d: traffic (%d msgs, %d words) != serial (%d, %d)",
				shards, res.Messages, res.Words, base.Messages, base.Words)
		}
		for c := range base.ClassStats {
			if res.ClassStats[c] != base.ClassStats[c] {
				t.Errorf("shards=%d: class %d stats %+v != serial %+v",
					shards, c+1, res.ClassStats[c], base.ClassStats[c])
			}
		}
		for c := range base.ClassRounds {
			if res.ClassRounds[c] != base.ClassRounds[c] {
				t.Errorf("shards=%d: class %d rounds %d != serial %d",
					shards, c+1, res.ClassRounds[c], base.ClassRounds[c])
			}
		}
		for v := range base.Colors {
			if res.Colors[v] != base.Colors[v] {
				t.Fatalf("shards=%d: node %d colored %d, serial %d", shards, v, res.Colors[v], base.Colors[v])
			}
		}
	}
}
