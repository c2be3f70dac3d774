package core

import (
	"testing"

	"smallbandwidth/internal/graph"
)

// TestOptionsMatrix runs the full pipeline across the option space on
// one fixed instance: every combination must produce the same *valid*
// coloring semantics (validity, completeness), though round counts and
// colors may differ.
func TestOptionsMatrix(t *testing.T) {
	g := graph.Grid2D(4, 4)
	inst := graph.DeltaPlusOneInstance(g)
	for _, opts := range []Options{
		{},
		{HighAccuracy: true},
		{TrackPotentials: true},
		{MaxWords: 6},
		{MaxWords: 4, TrackPotentials: true, HighAccuracy: true},
	} {
		res, err := ListColorCONGEST(inst, opts)
		if err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
		if !res.Done {
			t.Fatalf("opts %+v: incomplete", opts)
		}
		if err := inst.VerifyColoring(res.Colors); err != nil {
			t.Fatalf("opts %+v: %v", opts, err)
		}
	}
}

// TestMaxWordsTooSmallFails: a 2-word cap cannot carry the 4-word phase
// message; the run must fail loudly, not silently truncate.
func TestMaxWordsTooSmallFails(t *testing.T) {
	inst := graph.DeltaPlusOneInstance(graph.Cycle(6))
	if _, err := ListColorCONGEST(inst, Options{MaxWords: 2}); err == nil {
		t.Error("2-word bandwidth accepted; phase messages need 4 words")
	}
}

// TestWideColorSpace uses C much larger than Δ+1 (more prefix phases).
func TestWideColorSpace(t *testing.T) {
	g := graph.Cycle(10)
	lists := make([][]uint32, g.N())
	for v := range lists {
		// deg+1 = 3 colors spread over a 2^10 color space.
		lists[v] = []uint32{uint32(v * 97 % 1024), uint32(v*97%1024) + 1, 1000 + uint32(v)}
		sortU32(lists[v])
	}
	inst := &graph.Instance{G: g, C: 1024, Lists: lists}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := ListColorCONGEST(inst, Options{TrackPotentials: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("incomplete")
	}
	if res.Params.LogC != 10 {
		t.Errorf("LogC = %d, want 10", res.Params.LogC)
	}
	if err := inst.VerifyColoring(res.Colors); err != nil {
		t.Fatal(err)
	}
}

// TestSingleColorSpace: C = 1 forces an edgeless graph and zero phases.
func TestSingleColorSpace(t *testing.T) {
	g, err := graph.FromEdges(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	inst := &graph.Instance{G: g, C: 1, Lists: [][]uint32{{0}}}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := ListColorCONGEST(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || res.Colors[0] != 0 {
		t.Errorf("C=1: %+v", res)
	}
}

// TestListsLargerThanDegreePlusOne: extra slack in lists is legal and
// speeds things up (fewer conflicts); the result must still verify.
func TestListsLargerThanDegreePlusOne(t *testing.T) {
	g := graph.MustRandomRegular(20, 4, 6)
	inst, err := graph.RandomListInstance(g, 64, 6, 8)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ListColorCONGEST(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("incomplete")
	}
}

// TestComponentsWithIsolatedNodes: isolated nodes are 1-node components
// with singleton lists.
func TestComponentsWithIsolatedNodes(t *testing.T) {
	g, err := graph.FromEdges(5, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	inst := graph.DeltaPlusOneInstance(g)
	res, err := ListColorComponents(inst, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("incomplete")
	}
	if err := inst.VerifyColoring(res.Colors); err != nil {
		t.Fatal(err)
	}
}

// TestHighAccuracyTightensPotential compares the final potentials of the
// two accuracy settings: the sharper ε must give a final ΣΦ no larger
// (up to float noise) on the same instance.
func TestHighAccuracyTightensPotential(t *testing.T) {
	g := graph.Torus2D(5, 5)
	inst := graph.DeltaPlusOneInstance(g)
	std, err := ListColorCONGEST(inst, Options{TrackPotentials: true, MaxIterations: 1})
	if err != nil {
		t.Fatal(err)
	}
	sharp, err := ListColorCONGEST(inst, Options{TrackPotentials: true, MaxIterations: 1, HighAccuracy: true})
	if err != nil {
		t.Fatal(err)
	}
	if sharp.Params.B <= std.Params.B {
		t.Errorf("HighAccuracy B = %d not larger than standard B = %d", sharp.Params.B, std.Params.B)
	}
	// Both must satisfy the standard bound; the sharper run's budget is
	// smaller by construction. (Values can differ since seeds differ.)
	for i, label := range []*Result{std, sharp} {
		final := label.PotentialPhase[0][label.Params.LogC-1]
		if final > 2*float64(label.AliveAt[0]) {
			t.Errorf("run %d: final ΣΦ = %v exceeds 2n", i, final)
		}
	}
}

func sortU32(a []uint32) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}
