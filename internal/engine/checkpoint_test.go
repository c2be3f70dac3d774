package engine_test

// Checkpoint/restore at the engine level: a step protocol with queued
// bursts commits its state every round, the run records a cut per round,
// and for every recorded cut a fresh run resumed from it must end with
// bit-identical per-node results and Stats — the crash-at-every-round
// contract, at both 1 and many forced shards.

import (
	"reflect"
	"slices"
	"testing"

	"smallbandwidth/internal/engine"
)

// adjTop is a minimal Topology over an explicit adjacency table.
type adjTop struct {
	adj [][]int32
}

func (a *adjTop) N() int                  { return len(a.adj) }
func (a *adjTop) Neighbors(v int) []int32 { return a.adj[v] }

// newAdjTop builds a topology from undirected edges.
func newAdjTop(n int, edges [][2]int) *adjTop {
	a := &adjTop{adj: make([][]int32, n)}
	for _, e := range edges {
		a.adj[e[0]] = append(a.adj[e[0]], int32(e[1]))
		a.adj[e[1]] = append(a.adj[e[1]], int32(e[0]))
	}
	for v := range a.adj {
		slices.Sort(a.adj[v])
	}
	return a
}

// pathEdges is the path 0-1-...-(n-1).
func pathEdges(n int) [][2]int {
	var es [][2]int
	for v := 0; v+1 < n; v++ {
		es = append(es, [2]int{v, v + 1})
	}
	return es
}

// stepBlob encodes the step program's whole state: next iteration and
// the running delivery checksum.
func stepBlob(iter int, sum uint64) []byte {
	var b []byte
	for i := 0; i < 8; i++ {
		b = append(b, byte(iter>>(8*i)), byte(sum>>(8*i)))
	}
	return b
}

func stepUnblob(b []byte) (iter int, sum uint64) {
	for i := 7; i >= 0; i-- {
		iter = iter<<8 | int(b[2*i])
		sum = sum<<8 | uint64(b[2*i+1])
	}
	return
}

// stepProgram runs `rounds` lockstep iterations. Every iteration queues
// one message per edge; every third iteration queues a second (creating
// a genuine multi-round backlog, so some cuts carry non-empty queues).
// The checksum folds in sender order, so any deviation in delivery
// content or order on a resumed run changes the final value. finals[v]
// receives node v's checksum (disjoint indexes, no lock needed). A node
// of a domain cut in snap resumes from its own blob there.
func stepProgram(rounds int, finals []uint64, snap *engine.RunSnapshot) func(*engine.Ctx) {
	resumed := map[int][]byte{}
	if snap != nil {
		for _, cut := range snap.Cuts {
			for _, nc := range cut.Nodes {
				resumed[int(nc.ID)] = nc.Blob
			}
		}
	}
	return func(ctx *engine.Ctx) {
		sum := uint64(0)
		start := 0
		if b, ok := resumed[ctx.ID()]; ok {
			start, sum = stepUnblob(b)
		}
		for iter := start; iter < rounds; iter++ {
			if ctx.CheckpointEnabled() {
				ctx.Commit(stepBlob(iter, sum))
			}
			// Per-edge send schedule over each 3-iteration cycle: a burst
			// of two (one round of genuine backlog), then a silent round
			// that drains it, then a single. The burst guard keeps its
			// trailing message deliverable before the protocol exits.
			if iter%3 != 1 {
				for _, w := range ctx.Neighbors() {
					ctx.SendQueued(int(w), engine.Message{uint64(ctx.ID()), uint64(iter)})
					if iter%3 == 0 && iter+2 <= rounds {
						ctx.SendQueued(int(w), engine.Message{uint64(ctx.ID()) + 100, uint64(iter)})
					}
				}
			}
			for _, in := range ctx.Next() {
				sum = sum*31 + uint64(in.From)*5 + in.Payload[0]*3 + in.Payload[1]
			}
		}
		ctx.CommitFinal(stepBlob(rounds, sum))
		finals[ctx.ID()] = sum
	}
}

// runStep executes the step protocol, optionally checkpointing or
// resuming, and returns the per-node checksums and Stats.
func runStep(t *testing.T, top engine.Topology, rounds int, ck *engine.Checkpointer, snap *engine.RunSnapshot) ([]uint64, *engine.Stats) {
	t.Helper()
	finals := make([]uint64, top.N())
	st, err := engine.Run(top, engine.Config{Checkpoint: ck, Resume: snap}, stepProgram(rounds, finals, snap))
	if err != nil {
		t.Fatal(err)
	}
	return finals, st
}

func TestCheckpointResumeEveryRound(t *testing.T) {
	const n, rounds = 9, 14
	// A path plus a separate triangle: two lockstep domains, so the sweep
	// also exercises per-domain cut assembly.
	edges := append(pathEdges(n-3), [2]int{n - 3, n - 2}, [2]int{n - 2, n - 1}, [2]int{n - 3, n - 1})
	top := newAdjTop(n, edges)

	wantFinals, wantStats := runStep(t, top, rounds, nil, nil)

	ck := &engine.Checkpointer{KeepAll: true}
	ckFinals, ckStats := runStep(t, top, rounds, ck, nil)
	if !reflect.DeepEqual(ckFinals, wantFinals) || *ckStats != *wantStats {
		t.Fatalf("checkpointing perturbed the run: finals %v vs %v, stats %+v vs %+v", ckFinals, wantFinals, ckStats, wantStats)
	}

	cutRounds := ck.CutRounds()
	if len(cutRounds) == 0 {
		t.Fatal("no cuts recorded")
	}
	backlogged := false
	for _, k := range cutRounds {
		for _, cut := range ck.At(k).Cuts {
			if len(cut.Queues) > 0 {
				backlogged = true
			}
		}
	}
	if !backlogged {
		t.Fatal("no cut captured a queued backlog; the burst pattern should leave one")
	}

	// The headline sweep: crash after every checkpoint round, resume in a
	// fresh run, demand bit-identical finals and Stats.
	for _, k := range cutRounds {
		snap := ck.At(k)
		gotFinals, gotStats := runStep(t, top, rounds, nil, snap)
		// Nodes already done in the cut never rerun; graft their recorded
		// blobs for the comparison.
		for _, cut := range snap.Cuts {
			for _, nc := range cut.Nodes {
				if nc.Done {
					_, gotFinals[nc.ID] = stepUnblob(nc.Blob)
				}
			}
		}
		if !reflect.DeepEqual(gotFinals, wantFinals) {
			t.Fatalf("resume at round %d: finals %v, want %v", k, gotFinals, wantFinals)
		}
		if *gotStats != *wantStats {
			t.Fatalf("resume at round %d: stats %+v, want %+v", k, gotStats, wantStats)
		}
	}

	// Resuming from the terminal snapshot spawns nothing and reproduces
	// the final Stats; with a fresh Checkpointer attached it re-records
	// the final cuts so Latest() is populated after the no-op run.
	last := ck.Latest()
	for _, cut := range last.Cuts {
		if !cut.Final {
			t.Fatalf("latest cut of domain %d is not final", cut.Root)
		}
	}
	reck := &engine.Checkpointer{}
	_, endStats := runStep(t, top, rounds, reck, last)
	if *endStats != *wantStats {
		t.Fatalf("terminal resume stats %+v, want %+v", endStats, wantStats)
	}
	if got := reck.Latest(); got == nil || !reflect.DeepEqual(got, last) {
		t.Fatalf("terminal resume did not re-record the final cuts:\n got %+v\nwant %+v", got, last)
	}
}

// TestCheckpointCutsDeterministicAcrossShards pins that the recorded
// cuts — blobs, queues, stats, byte for byte — do not depend on the
// worker count, and that a cut taken at one shard count resumes
// identically at another.
func TestCheckpointCutsDeterministicAcrossShards(t *testing.T) {
	const n, rounds = 300, 11
	top := newAdjTop(n, pathEdges(n))

	collect := func(shards int) (*engine.Checkpointer, []uint64, *engine.Stats) {
		engine.SetForceShards(shards)
		defer engine.SetForceShards(0)
		ck := &engine.Checkpointer{KeepAll: true}
		finals, st := runStep(t, top, rounds, ck, nil)
		return ck, finals, st
	}
	ck1, finals1, st1 := collect(1)
	ck3, finals3, st3 := collect(3)
	if !reflect.DeepEqual(finals1, finals3) || *st1 != *st3 {
		t.Fatalf("step protocol itself diverged across shard counts")
	}
	rounds1, rounds3 := ck1.CutRounds(), ck3.CutRounds()
	if !reflect.DeepEqual(rounds1, rounds3) {
		t.Fatalf("cut rounds differ across shards: %v vs %v", rounds1, rounds3)
	}
	for _, k := range rounds1 {
		if s1, s3 := ck1.At(k), ck3.At(k); !reflect.DeepEqual(s1, s3) {
			t.Fatalf("cut at round %d differs across shard counts:\n1: %+v\n3: %+v", k, s1, s3)
		}
	}

	// Cross-shard resume: a mid-run cut from the 3-shard collection,
	// resumed at 1 shard and at 4, both matching the uninterrupted run.
	mid := rounds1[len(rounds1)/2]
	for _, shards := range []int{1, 4} {
		engine.SetForceShards(shards)
		gotFinals, gotStats := runStep(t, top, rounds, nil, ck3.At(mid))
		engine.SetForceShards(0)
		if !reflect.DeepEqual(gotFinals, finals1) || *gotStats != *st1 {
			t.Fatalf("cross-shard resume at %d shards diverged", shards)
		}
	}
}

// TestResumeValidation pins that corrupt snapshots are rejected up
// front with an error instead of poisoning a run.
func TestResumeValidation(t *testing.T) {
	const n, rounds = 6, 8
	top := newAdjTop(n, pathEdges(n))
	ck := &engine.Checkpointer{KeepAll: true}
	runStep(t, top, rounds, ck, nil)
	mid := ck.CutRounds()[len(ck.CutRounds())/2]

	corrupt := []struct {
		name string
		warp func(s *engine.RunSnapshot)
	}{
		{"unknown-root", func(s *engine.RunSnapshot) { s.Cuts[0].Root = 3 }},
		{"stats-round-mismatch", func(s *engine.RunSnapshot) { s.Cuts[0].Stats.Rounds++ }},
		{"node-count", func(s *engine.RunSnapshot) { s.Cuts[0].Nodes = s.Cuts[0].Nodes[:1] }},
		{"node-id", func(s *engine.RunSnapshot) { s.Cuts[0].Nodes[2].ID = 99 }},
		{"queue-sender", func(s *engine.RunSnapshot) {
			s.Cuts[0].Queues = append(s.Cuts[0].Queues, engine.QueueCut{Sender: 77, Slot: 0, Msgs: []engine.Message{{1}}})
		}},
		{"queue-slot", func(s *engine.RunSnapshot) {
			s.Cuts[0].Queues = append(s.Cuts[0].Queues, engine.QueueCut{Sender: 0, Slot: 9, Msgs: []engine.Message{{1}}})
		}},
		{"queue-width", func(s *engine.RunSnapshot) {
			s.Cuts[0].Queues = append(s.Cuts[0].Queues, engine.QueueCut{Sender: 0, Slot: 0, Msgs: []engine.Message{make(engine.Message, 99)}})
		}},
		{"duplicate-domain", func(s *engine.RunSnapshot) { s.Cuts = append(s.Cuts, s.Cuts[0]) }},
	}
	for _, c := range corrupt {
		snap := ck.At(mid)
		c.warp(snap)
		finals := make([]uint64, n)
		_, err := engine.Run(top, engine.Config{Resume: snap}, stepProgram(rounds, finals, snap))
		if err == nil {
			t.Fatalf("%s: corrupted snapshot was accepted", c.name)
		}
	}
}
