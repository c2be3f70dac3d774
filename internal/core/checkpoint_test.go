package core

// Checkpoint/restore of the Theorem 1.1 runs: the crash-at-every-round
// sweep (resume from every recorded cut must reproduce the
// uninterrupted run bit for bit), fault injection through the crash
// hook, snapshot-file round-trips, and rejection of corrupt state.

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"slices"
	"strings"
	"testing"

	"smallbandwidth/internal/congest"
	"smallbandwidth/internal/engine"
	"smallbandwidth/internal/graph"
)

// requireResultEq compares everything a resumed run must reproduce:
// colors, measured Stats, and the per-iteration telemetry.
func requireResultEq(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Colors, want.Colors) {
		t.Fatalf("%s: colors diverged", label)
	}
	if got.Stats != want.Stats {
		t.Fatalf("%s: stats %+v, want %+v", label, got.Stats, want.Stats)
	}
	if got.Iterations != want.Iterations || got.Done != want.Done {
		t.Fatalf("%s: iterations/done (%d,%v), want (%d,%v)",
			label, got.Iterations, got.Done, want.Iterations, want.Done)
	}
	if !reflect.DeepEqual(got.AliveAt, want.AliveAt) || !reflect.DeepEqual(got.Colored, want.Colored) {
		t.Fatalf("%s: per-iteration telemetry diverged:\n got %v %v\nwant %v %v",
			label, got.AliveAt, got.Colored, want.AliveAt, want.Colored)
	}
}

// disconnectedInstance is a path and a cycle in one instance: two
// lockstep domains, so cuts and resumes cross component boundaries.
func disconnectedInstance(t *testing.T) *graph.Instance {
	t.Helper()
	var edges [][2]int
	for v := 0; v+1 < 7; v++ {
		edges = append(edges, [2]int{v, v + 1})
	}
	for v := 7; v < 13; v++ {
		w := v + 1
		if w == 13 {
			w = 7
		}
		edges = append(edges, [2]int{v, w})
	}
	g, err := graph.FromEdges(13, edges)
	if err != nil {
		t.Fatal(err)
	}
	return mustInstance(t, g)
}

func TestResumableMatchesListColorCONGEST(t *testing.T) {
	for _, tc := range []struct {
		name string
		inst *graph.Instance
	}{
		{"gnp", mustInstance(t, graph.GNP(32, 0.12, 3))},
		{"disconnected", disconnectedInstance(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := ListColorCONGEST(tc.inst, Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := ListColorResumable(tc.inst, Options{}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			requireResultEq(t, "fresh resumable run", got, want)
		})
	}
}

// TestCheckpointResumeEverySweep is the core of the differential tier:
// checkpoint a run at every iteration boundary, then for every recorded
// cut round discard the live run, resume fresh, and demand the final
// colors, Stats, and telemetry bit-identical to the uninterrupted run.
func TestCheckpointResumeEverySweep(t *testing.T) {
	for _, tc := range []struct {
		name string
		inst *graph.Instance
	}{
		{"grid", mustInstance(t, graph.Grid2D(4, 5))},
		{"disconnected", disconnectedInstance(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ck := &congest.Checkpointer{KeepAll: true}
			want, err := ListColorResumable(tc.inst, Options{}, ck, nil)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := ListColorResumable(tc.inst, Options{}, nil, nil)
			if err != nil {
				t.Fatal(err)
			}
			requireResultEq(t, "checkpointing perturbed the run", want, plain)

			cutRounds := ck.CutRounds()
			if len(cutRounds) < 2 {
				t.Fatalf("only %d cut rounds recorded", len(cutRounds))
			}
			for _, k := range cutRounds {
				got, err := ListColorResumable(tc.inst, Options{}, nil, ck.At(k))
				if err != nil {
					t.Fatalf("resume at round %d: %v", k, err)
				}
				requireResultEq(t, "resume", got, want)
			}

			// The terminal snapshot restores the completed run without
			// spawning any node program.
			last := ck.Latest()
			for _, cut := range last.Cuts {
				if !cut.Final {
					t.Fatalf("latest cut of domain %d is not final", cut.Root)
				}
			}
			got, err := ListColorResumable(tc.inst, Options{}, nil, last)
			if err != nil {
				t.Fatal(err)
			}
			requireResultEq(t, "terminal resume", got, want)
		})
	}
}

// TestCheckpointCrashResume injects a mid-run fault: one node's program
// is killed at a chosen iteration, the aborted run's last checkpoint is
// resumed, and the completed result must match the uninterrupted run —
// at one engine shard and at several.
func TestCheckpointCrashResume(t *testing.T) {
	inst := mustInstance(t, graph.MustRandomRegular(48, 4, 7))
	want, err := ListColorResumable(inst, Options{}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Crash mid-run, but no earlier than iteration 1 so at least one
	// checkpoint exists to restart from.
	crashAt := want.Iterations / 2
	if crashAt < 1 {
		crashAt = 1
	}
	if want.Iterations < 2 {
		t.Fatalf("run too short for a mid-run crash: %d iterations", want.Iterations)
	}
	crash := Options{crashIter: crashAt + 1, crashNode: inst.G.N() / 2}

	for _, shards := range []int{1, 3} {
		engine.SetForceShards(shards)
		ck := &congest.Checkpointer{}
		_, err := ListColorResumable(inst, crash, ck, nil)
		if err == nil {
			engine.SetForceShards(0)
			t.Fatalf("shards=%d: injected crash did not abort the run", shards)
		}
		snap := ck.Latest()
		if snap == nil || len(snap.Cuts) == 0 {
			engine.SetForceShards(0)
			t.Fatalf("shards=%d: no checkpoint survived the crash", shards)
		}
		got, err := ListColorResumable(inst, Options{}, nil, snap)
		engine.SetForceShards(0)
		if err != nil {
			t.Fatalf("shards=%d: resume after crash: %v", shards, err)
		}
		requireResultEq(t, "post-crash resume", got, want)
	}
}

// TestCheckpointCutsDeterministicAcrossShards extends the engine's
// *DeterministicAcrossShards family to the coloring protocol: the
// recorded cuts — node blobs, queues, stats, byte for byte — must not
// depend on the worker count.
func TestCheckpointCutsDeterministicAcrossShards(t *testing.T) {
	inst := mustInstance(t, graph.Grid2D(5, 6))
	collect := func(shards int) *congest.Checkpointer {
		engine.SetForceShards(shards)
		defer engine.SetForceShards(0)
		ck := &congest.Checkpointer{KeepAll: true}
		if _, err := ListColorResumable(inst, Options{}, ck, nil); err != nil {
			t.Fatal(err)
		}
		return ck
	}
	ck1, ck4 := collect(1), collect(4)
	r1, r4 := ck1.CutRounds(), ck4.CutRounds()
	if !reflect.DeepEqual(r1, r4) {
		t.Fatalf("cut rounds differ across shard counts: %v vs %v", r1, r4)
	}
	for _, k := range r1 {
		if s1, s4 := ck1.At(k), ck4.At(k); !reflect.DeepEqual(s1, s4) {
			t.Fatalf("cut at round %d differs across shard counts", k)
		}
	}
}

// TestCheckpointCutsDeterministicAcrossWorkers is the same pin driven
// end to end through the public Options.Workers knob instead of the
// SetForceShards test hook, on an instance large enough (≥ 4·256
// nodes) that Workers=4 genuinely cuts four delivery shards: the
// commit-barrier cuts must stage per-shard state in an order that
// leaves the snapshot bytes identical at every worker count.
func TestCheckpointCutsDeterministicAcrossWorkers(t *testing.T) {
	inst := mustInstance(t, graph.Cycle(1200))
	collect := func(workers int) *congest.Checkpointer {
		ck := &congest.Checkpointer{KeepAll: true}
		if _, err := ListColorResumable(inst, Options{Workers: workers}, ck, nil); err != nil {
			t.Fatal(err)
		}
		return ck
	}
	ck1, ck4 := collect(1), collect(4)
	r1, r4 := ck1.CutRounds(), ck4.CutRounds()
	if !reflect.DeepEqual(r1, r4) {
		t.Fatalf("cut rounds differ across worker counts: %v vs %v", r1, r4)
	}
	for _, k := range r1 {
		if s1, s4 := ck1.At(k), ck4.At(k); !reflect.DeepEqual(s1, s4) {
			t.Fatalf("cut at round %d differs across worker counts", k)
		}
	}
}

func TestResumableRejectsTrackPotentials(t *testing.T) {
	inst := mustInstance(t, graph.Path(4))
	if _, err := ListColorResumable(inst, Options{TrackPotentials: true}, nil, nil); err == nil {
		t.Fatal("potential tracking across a resume boundary was accepted")
	}
}

// TestResumableRejectsCorruptBlobs pins that damaged node blobs are
// refused with an error before any node program starts.
func TestResumableRejectsCorruptBlobs(t *testing.T) {
	inst := mustInstance(t, graph.Grid2D(3, 4))
	ck := &congest.Checkpointer{KeepAll: true}
	if _, err := ListColorResumable(inst, Options{}, ck, nil); err != nil {
		t.Fatal(err)
	}
	rounds := ck.CutRounds()
	mid := rounds[len(rounds)/2]

	warps := []struct {
		name string
		warp func(s *congest.RunSnapshot)
	}{
		{"truncated-blob", func(s *congest.RunSnapshot) {
			b := s.Cuts[0].Nodes[1].Blob
			s.Cuts[0].Nodes[1].Blob = b[:len(b)/2]
		}},
		{"empty-blob", func(s *congest.RunSnapshot) { s.Cuts[0].Nodes[2].Blob = nil }},
		{"trailing-garbage", func(s *congest.RunSnapshot) {
			nc := &s.Cuts[0].Nodes[0]
			nc.Blob = append(append([]byte(nil), nc.Blob...), 0xff)
		}},
		{"foreign-root", func(s *congest.RunSnapshot) { s.Cuts[0].Root = 1 }},
	}
	for _, w := range warps {
		t.Run(w.name, func(t *testing.T) {
			snap := ck.At(mid)
			w.warp(snap)
			if _, err := ListColorResumable(inst, Options{}, nil, snap); err == nil {
				t.Fatal("corrupt snapshot was accepted")
			}
		})
	}
}

// withTreeField returns a copy of commit blob b whose tree field k
// (0 parent, 1 depth, 2 height, 3 size, 4 subtree height) is set to
// val. The fields before them are iter, the alive and colored bytes,
// color, coloredAt, ψ and op.
func withTreeField(t *testing.T, b []byte, k int, val int64) []byte {
	t.Helper()
	pos := 0
	skip := func(signed bool) int64 {
		var x int64
		var n int
		if signed {
			x, n = binary.Varint(b[pos:])
		} else {
			var u uint64
			u, n = binary.Uvarint(b[pos:])
			x = int64(u)
		}
		if n <= 0 {
			t.Fatalf("blob ends at byte %d", pos)
		}
		pos += n
		return x
	}
	skip(false) // iter
	pos += 2    // alive, colored
	skip(false) // color
	skip(true)  // coloredAt
	skip(false) // ψ
	skip(false) // op
	out := append([]byte(nil), b[:pos]...)
	for i := 0; i < 5; i++ {
		x := skip(i == 0)
		if i == k {
			x = val
		}
		if i == 0 {
			out = binary.AppendVarint(out, x)
		} else {
			out = binary.AppendUvarint(out, uint64(x))
		}
	}
	return append(out, b[pos:]...)
}

// TestResumableRejectsForeignTree: a snapshot whose blob names a tree
// other than the graph's BFS tree — another parent one layer up, a
// depth or a subtree height that still passes the blob's own range
// checks — is refused with an error, not a panic, before any node
// program starts.
func TestResumableRejectsForeignTree(t *testing.T) {
	g := graph.Grid2D(4, 5)
	inst := mustInstance(t, g)
	ck := &congest.Checkpointer{KeepAll: true}
	if _, err := ListColorResumable(inst, Options{}, ck, nil); err != nil {
		t.Fatal(err)
	}
	rounds := ck.CutRounds()
	mid := rounds[len(rounds)/2]
	// Node 6 sits at row 1, column 1: depth 2 below parent 1, with node 5
	// another neighbor at depth 1; its subtree is the column below it, of
	// height 2 in a tree of height 7.
	lay := congest.LayoutBFS(g)
	if lay.Parent[6] != 1 || lay.Depth[6] != 2 || lay.Depth[5] != 1 || lay.SubtreeHeight[6] != 2 || lay.Trees[0].Height != 7 {
		t.Fatalf("node 6 has parent %d, depth %d, subtree height %d", lay.Parent[6], lay.Depth[6], lay.SubtreeHeight[6])
	}
	if b := ck.At(mid).Cuts[0].Nodes[6].Blob; !bytes.Equal(withTreeField(t, b, 0, 1), b) {
		t.Fatal("rewriting node 6's parent with its own value changed the blob")
	}
	for _, tc := range []struct {
		name  string
		field int
		val   int64
	}{
		{"parent", 0, 5},
		{"depth", 1, 3},
		{"subtree-height", 4, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// At shares the cut's Nodes with the checkpointer: rewrite a copy.
			snap := ck.At(mid)
			nodes := slices.Clone(snap.Cuts[0].Nodes)
			snap.Cuts[0].Nodes = nodes
			nodes[6].Blob = withTreeField(t, nodes[6].Blob, tc.field, tc.val)
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("resume panicked: %v", p)
				}
			}()
			_, err := ListColorResumable(inst, Options{}, nil, snap)
			if err == nil || !strings.Contains(err.Error(), "not the graph's BFS tree") {
				t.Fatalf("resume from a foreign %s returned %v", tc.name, err)
			}
		})
	}
}

// TestCheckpointFileRoundTrip pins the on-disk format: encode a real
// mid-run checkpoint, decode it, resume from the decoded copy, and
// re-encode it byte for byte.
func TestCheckpointFileRoundTrip(t *testing.T) {
	inst := mustInstance(t, graph.Grid2D(4, 4))
	opts := Options{MaxWords: 4}
	ck := &congest.Checkpointer{KeepAll: true}
	want, err := ListColorResumable(inst, opts, ck, nil)
	if err != nil {
		t.Fatal(err)
	}
	rounds := ck.CutRounds()
	snap := ck.At(rounds[len(rounds)/2])

	raw := EncodeCheckpoint(&Checkpoint{Inst: inst, Opts: opts, Snap: snap})
	cp, err := DecodeCheckpoint(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !cp.Inst.G.Equal(inst.G) || cp.Inst.C != inst.C || !reflect.DeepEqual(cp.Inst.Lists, inst.Lists) {
		t.Fatal("decoded checkpoint instance differs from the original")
	}
	if cp.Opts != opts {
		t.Fatalf("decoded options %+v, want %+v", cp.Opts, opts)
	}
	if !reflect.DeepEqual(cp.Snap, snap) {
		t.Fatal("decoded engine cut differs from the original")
	}
	if again := EncodeCheckpoint(cp); !bytes.Equal(again, raw) {
		t.Fatal("decode followed by encode did not reproduce the bytes")
	}

	got, err := ListColorFromCheckpoint(cp, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireResultEq(t, "resume from decoded file", got, want)
}
