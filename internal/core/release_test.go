package core

import (
	"runtime"
	"runtime/metrics"
	"testing"
	"unsafe"

	"smallbandwidth/internal/congest"
	"smallbandwidth/internal/graph"
)

// TestFinishedComponentsReleased: a finished component's node states,
// and through them its engine arenas, must become garbage while later
// components run. Forty distinct 200-node parts run one at a time
// (Workers: 1); the live heap after a GC at each part's first cut may
// grow only by what a finished part keeps on purpose — its phase hub
// and its latest cut — which is less than its node states alone.
func TestFinishedComponentsReleased(t *testing.T) {
	const parts, size = 40, 200
	b := graph.NewBuilder(parts * size)
	for p := 0; p < parts; p++ {
		g := graph.MustRandomRegular(size, 4, uint64(p+1))
		for v := 0; v < size; v++ {
			for _, w := range g.Neighbors(v) {
				if int(w) > v {
					b.MustAddEdge(p*size+v, p*size+int(w))
				}
			}
		}
	}
	inst := mustInstance(t, b.Build())

	seen := map[int32]bool{}
	var live []uint64 // at each part's first cut, in the order the parts ran
	sample := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	ck := &congest.Checkpointer{OnCut: func(c *congest.DomainCut) {
		if seen[c.Root] {
			return
		}
		seen[c.Root] = true
		runtime.GC()
		metrics.Read(sample)
		live = append(live, sample[0].Value.Uint64())
	}}
	if _, err := ListColorResumable(inst, Options{Workers: 1}, ck, nil); err != nil {
		t.Fatal(err)
	}
	if len(live) != parts {
		t.Fatalf("%d parts took a cut, want %d", len(live), parts)
	}
	perPart := (int64(live[parts-1]) - int64(live[0])) / (parts - 1)
	t.Logf("live heap %d B at the first part's first cut, %d B at the last's: %d B per finished part",
		live[0], live[parts-1], perPart)
	if nodes := int64(size * unsafe.Sizeof(nodeState{})); perPart >= nodes {
		t.Errorf("each finished part keeps %d B live, as much as its %d B of node states", perPart, nodes)
	}
}
