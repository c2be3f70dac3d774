package graph

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestDeltaPlusOneInstance(t *testing.T) {
	g := Star(6)
	inst := DeltaPlusOneInstance(g)
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	if inst.C != 6 {
		t.Errorf("C = %d, want 6", inst.C)
	}
	if len(inst.Lists[0]) != 6 {
		t.Errorf("center list size %d, want 6", len(inst.Lists[0]))
	}
	if len(inst.Lists[1]) != 2 {
		t.Errorf("leaf list size %d, want 2", len(inst.Lists[1]))
	}
}

func TestRandomListInstance(t *testing.T) {
	g := MustRandomRegular(20, 4, 9)
	inst, err := RandomListInstance(g, 32, 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	// Too small a color space must error.
	if _, err := RandomListInstance(g, 4, 0, 5); err == nil {
		t.Error("C < Δ+1 accepted")
	}
	// Deterministic in seed.
	inst2, _ := RandomListInstance(g, 32, 0, 5)
	for v := range inst.Lists {
		if len(inst.Lists[v]) != len(inst2.Lists[v]) {
			t.Fatal("RandomListInstance not deterministic")
		}
		for i := range inst.Lists[v] {
			if inst.Lists[v][i] != inst2.Lists[v][i] {
				t.Fatal("RandomListInstance not deterministic")
			}
		}
	}
}

func TestShiftedListInstance(t *testing.T) {
	g := Cycle(8)
	inst, err := ShiftedListInstance(g, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := inst.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := ShiftedListInstance(g, 2, 1); err == nil {
		t.Error("too-small color space accepted")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	g := Path(4)
	inst := DeltaPlusOneInstance(g)

	short := *inst
	short.Lists = append([][]uint32{}, inst.Lists...)
	short.Lists[1] = []uint32{0} // deg(1)=2 needs 3 colors
	if short.Validate() == nil {
		t.Error("short list accepted")
	}

	dup := *inst
	dup.Lists = append([][]uint32{}, inst.Lists...)
	dup.Lists[0] = []uint32{1, 1}
	if dup.Validate() == nil {
		t.Error("duplicate colors accepted")
	}

	out := *inst
	out.Lists = append([][]uint32{}, inst.Lists...)
	out.Lists[0] = []uint32{0, 99}
	if out.Validate() == nil {
		t.Error("out-of-space color accepted")
	}

	bad := Instance{G: nil}
	if bad.Validate() == nil {
		t.Error("nil graph accepted")
	}
}

func TestGreedyAlwaysSucceeds(t *testing.T) {
	graphs := []*Graph{
		Path(12), Cycle(9), Complete(7), Star(10), Grid2D(4, 5),
		MustRandomRegular(24, 5, 3), GNP(30, 0.3, 8), Caveman(3, 4),
	}
	for gi, g := range graphs {
		inst := DeltaPlusOneInstance(g)
		colors := inst.Greedy()
		if err := inst.VerifyColoring(colors); err != nil {
			t.Errorf("graph %d: greedy coloring invalid: %v", gi, err)
		}
	}
}

func TestGreedyOnRandomLists(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw)%20 + 5
		g := GNP(n, 0.4, seed)
		inst, err := RandomListInstance(g, uint32(g.MaxDegree()+8), 2, seed+1)
		if err != nil {
			return false
		}
		return inst.VerifyColoring(inst.Greedy()) == nil
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestVerifyColoringErrors(t *testing.T) {
	g := Path(3)
	inst := DeltaPlusOneInstance(g)
	if inst.VerifyColoring([]uint32{0}) == nil {
		t.Error("wrong length accepted")
	}
	// Color not in list: node 0 has list {0,1}, assign 5.
	if inst.VerifyColoring([]uint32{5, 0, 1}) == nil {
		t.Error("off-list color accepted")
	}
	// Monochromatic edge.
	if inst.VerifyColoring([]uint32{1, 1, 0}) == nil {
		t.Error("monochromatic edge accepted")
	}
	// Valid coloring passes.
	if err := inst.VerifyColoring([]uint32{0, 1, 0}); err != nil {
		t.Errorf("valid coloring rejected: %v", err)
	}
}

// TestRemoveColor: RemoveColor deletes a present color wherever it sits
// in the sorted list, shifting the tail in place, and returns a list
// without the color unchanged.
func TestRemoveColor(t *testing.T) {
	for _, tc := range []struct {
		name string
		c    uint32
		want []uint32
	}{
		{"present", 5, []uint32{1, 3, 8, 13}},
		{"absent", 4, []uint32{1, 3, 5, 8, 13}},
		{"first", 1, []uint32{3, 5, 8, 13}},
		{"last", 13, []uint32{1, 3, 5, 8}},
	} {
		list := []uint32{1, 3, 5, 8, 13}
		got := RemoveColor(list, tc.c)
		if !slices.Equal(got, tc.want) {
			t.Errorf("%s: RemoveColor(%v, %d) = %v, want %v", tc.name, []uint32{1, 3, 5, 8, 13}, tc.c, got, tc.want)
		}
		if &got[0] != &list[0] {
			t.Errorf("%s: RemoveColor copied the list instead of editing it in place", tc.name)
		}
	}
}
