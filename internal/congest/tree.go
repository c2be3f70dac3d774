package congest

import (
	"fmt"
	"math"
)

// Internal message tags for the tree primitives. User protocols should
// use tags ≥ UserTagBase.
const (
	tagAdopt    uint64 = 1 // [tag, depth, parentID+1] — BFS wave + parent notification
	tagReport   uint64 = 2 // [tag, height, size] — convergecast of subtree stats
	tagTreeDone uint64 = 3 // [tag, height<<32|size, syncRound] — downcast of tree completion
	tagUp       uint64 = 4 // [tag, op, values...] — partial sum toward the root
	tagDown     uint64 = 5 // [tag, op, values...] — total toward the leaves

	// UserTagBase is the first tag value available to user protocols.
	UserTagBase uint64 = 16
)

// Tree is a node's local view of a BFS spanning tree of the communication
// graph, produced by BuildBFSTree. Aggregation over the tree
// (ConvergeSumLockstepTo) is the communication backbone of the
// derandomization in Lemma 2.6.
type Tree struct {
	Root     int
	Parent   int   // parent node ID; -1 at the root
	Children []int // child node IDs, ascending
	Depth    int   // distance from the root
	Height   int   // height of the whole tree (max depth), known everywhere
	Size     int   // number of nodes in the tree (= n for spanning trees)
	// SubtreeHeight is the height of this node's own subtree (0 at
	// leaves, Height at the root). It makes the aggregation schedule
	// locally computable: in ConvergeSumLockstepTo all child sums have
	// arrived by start+SubtreeHeight, so the wait can be a single engine
	// sleep instead of one barrier per round.
	SubtreeHeight int

	// Reusable ConvergeSumLockstepTo scratch (see that function): the
	// result vector and the outgoing message buffers of the node's last
	// aggregation. The derandomization fixes one seed bit per
	// aggregation — millions per run — and reusing these buffers makes
	// the steady-state aggregation allocation-free.
	convAcc  []float64
	convMsgs [][]uint64
	convNext int
}

// convMsg returns the next reusable outgoing-message buffer, sized for
// n words. Buffer k of call i is only rewritten on call i+1, after the
// lockstep schedule guarantees its receiver consumed (and flipped past)
// the payload: every payload of one aggregation is read by round
// start+Height+maxDepth, and the lockstep contract makes the next call
// start at or after that round, with the engine barrier ordering the
// old read before the new write.
func (t *Tree) convMsg(n int) Message {
	if t.convNext == len(t.convMsgs) {
		t.convMsgs = append(t.convMsgs, make([]uint64, 0, n))
	} else if cap(t.convMsgs[t.convNext]) < n {
		t.convMsgs[t.convNext] = make([]uint64, 0, n)
	}
	m := t.convMsgs[t.convNext][:0]
	t.convNext++
	return m
}

// BuildBFSTree constructs a BFS spanning tree rooted at root using the
// deterministic flooding protocol: the wave carries (depth, parent
// choice), ties broken toward the smallest sender ID; subtree reports are
// converged to the root, which then broadcasts completion so that every
// node knows the tree height before returning. Takes O(D) rounds.
//
// The wave only ever reaches root's connected component, so disconnected
// graphs are handled by giving every node the root of its *own* component
// (conventionally the smallest member ID): each component builds its own
// spanning tree in the same engine run, and Size/Height are per-component
// quantities carried by that component's completion broadcast.
//
// All nodes of one component return in the *same* round (the completion
// broadcast carries a synchronization round that every node spins to), so
// protocols may follow the build with scheduled fixed-length segments;
// distinct components may return in different rounds, which is fine
// because no message ever crosses a component boundary.
func BuildBFSTree(ctx *Ctx, root int) *Tree {
	t := &Tree{Root: root, Parent: -1, Depth: 0}
	adopted := ctx.ID() == root
	// notified[i] is neighbor index i's announced parentID+1 (0 = the
	// root's "no parent"), or noParentChoice while unheard-from: a flat
	// slice over the neighbor indexes instead of a per-node map.
	const noParentChoice = ^uint64(0)
	notified := make([]uint64, ctx.Degree())
	for i := range notified {
		notified[i] = noParentChoice
	}
	heard := 0
	reported := 0
	childrenKnown := false
	sentReport := false
	height := 0 // height of my subtree
	size := 1

	if adopted {
		for _, w := range ctx.Neighbors() {
			ctx.Send(int(w), Message{tagAdopt, 0, 0}) // parentID+1 = 0 (none)
		}
		if ctx.Degree() == 0 {
			t.Height, t.Size, t.SubtreeHeight = 0, 1, 0
			return t
		}
	}

	// The build is event-driven: everything a node does reacts to a
	// received message, so the waits (for the adoption wave, the child
	// reports, the completion downcast) run as engine sleeps
	// (NextDelivery) instead of one barrier per round. The one
	// round-driven action — the report deferred by one round because the
	// adopt wave just used the parent edge — forces a single plain Next.
	deferredReport := false
	for {
		var ins []Incoming
		if deferredReport {
			deferredReport = false
			ins = ctx.Next()
		} else {
			ins = ctx.NextDelivery()
		}
		adoptedThisRound := false
		for _, in := range ins {
			switch in.Payload[0] {
			case tagAdopt:
				depth := int(in.Payload[1])
				if i := ctx.NeighborIndex(in.From); notified[i] == noParentChoice {
					heard++
					notified[i] = in.Payload[2]
				}
				if !adopted {
					adopted = true
					adoptedThisRound = true
					t.Parent = in.From
					t.Depth = depth + 1
					for _, w := range ctx.Neighbors() {
						ctx.Send(int(w), Message{tagAdopt, uint64(t.Depth), uint64(t.Parent) + 1})
					}
				}
			case tagReport:
				if h := int(in.Payload[1]) + 1; h > height {
					height = h
				}
				size += int(in.Payload[2])
				reported++
			case tagTreeDone:
				t.Height = int(in.Payload[1] >> 32)
				t.Size = int(in.Payload[1] & 0xffffffff)
				for _, ch := range t.Children {
					ctx.Send(ch, Message{tagTreeDone, in.Payload[1], in.Payload[2]})
				}
				spinUntil(ctx, int(in.Payload[2]))
				return t
			default:
				panic(fmt.Sprintf("congest: unexpected tag %d during tree build", in.Payload[0]))
			}
		}
		if adopted && !childrenKnown && heard == ctx.Degree() {
			childrenKnown = true
			for i, w := range ctx.Neighbors() {
				if notified[i] == uint64(ctx.ID())+1 {
					t.Children = append(t.Children, int(w))
				}
			}
		}
		// Defer the report by one round if the adopt wave just went out on
		// the same edge (one message per edge per round).
		if childrenKnown && !sentReport && reported == len(t.Children) && adoptedThisRound {
			deferredReport = true
		}
		if childrenKnown && !sentReport && reported == len(t.Children) && !adoptedThisRound {
			sentReport = true
			t.SubtreeHeight = height
			if ctx.ID() == root {
				t.Height = height
				t.Size = size
				sync := ctx.Round() + height + 3
				// Height and size are both < 2³² (one O(log n)-bit field
				// each), packed into one word to keep the completion message
				// within the report-message width.
				for _, ch := range t.Children {
					ctx.Send(ch, Message{tagTreeDone, uint64(height)<<32 | uint64(size), uint64(sync)})
				}
				spinUntil(ctx, sync)
				return t
			}
			ctx.Send(t.Parent, Message{tagReport, uint64(height), uint64(size)})
		}
	}
}

// ConvergeSumLockstepTo computes the component-wise sum of vec over all
// nodes of the tree (same length everywhere, at most MaxWords−2 values)
// and returns the total at every node in round until. Every tree node
// must enter in the same round start, as after BuildBFSTree or a
// SpinUntil, and until must be at least start+Height+Depth at every
// node (start+2·Height covers them all). Under that contract every
// message's round is known in advance:
//
//   - up: a node sends its partial sum to its parent in round
//     start+SubtreeHeight, so all child sums have arrived by then;
//   - down: the root holds the total in round start+Height and sends it
//     to its children; the copy reaches depth d in round
//     start+Height+d, and each node forwards it on arrival.
//
// One call therefore costs 2(Size−1) messages of len(vec)+2 words. The
// waits run as single engine sleeps (SkipUntil) instead of one barrier
// wake-up per round, and a childless node fuses its wait for the total
// with the trailing sleep to until. A violated contract surfaces as a
// protocol panic, not a wrong sum.
//
// The returned slice and the outgoing message buffers live on the Tree
// and are reused by the next call on it (the derandomization runs one
// aggregation per seed bit, and this reuse makes the steady state
// allocation-free): callers must copy the result before aggregating
// again.
func ConvergeSumLockstepTo(ctx *Ctx, t *Tree, op uint64, vec []float64, until int) []float64 {
	if len(vec) == 0 {
		panic("congest: ConvergeSumLockstepTo of empty vector")
	}
	if len(vec) > ctx.MaxWords()-2 {
		panic("congest: ConvergeSumLockstepTo vector exceeds one message")
	}
	start := ctx.Round()
	l := len(vec)
	if cap(t.convAcc) < l {
		t.convAcc = make([]float64, l)
	}
	t.convNext = 0
	acc := t.convAcc[:l]
	copy(acc, vec)

	takeUp := func(in Incoming) {
		if in.Payload[0] != tagUp || in.Payload[1] != op {
			panic(fmt.Sprintf("congest: node %d got (tag %d, op %d) during up-phase of op %d",
				ctx.ID(), in.Payload[0], in.Payload[1], op))
		}
		for i, w := range in.Payload[2:] {
			acc[i] += math.Float64frombits(w)
		}
	}
	pack := func(data []float64) Message {
		msg := t.convMsg(2 + l)
		msg = append(msg, tagUp, op)
		for _, f := range data {
			msg = append(msg, math.Float64bits(f))
		}
		return msg
	}

	// Up phase: child c's chunk arrives at start+h_c+1; all have arrived
	// by start+SubtreeHeight, when this node forwards its partial sum.
	got := 0
	for _, in := range ctx.SkipUntil(start + t.SubtreeHeight) {
		takeUp(in)
		got++
	}
	if got != len(t.Children) {
		panic(fmt.Sprintf("congest: node %d got %d of %d child chunks by its schedule",
			ctx.ID(), got, len(t.Children)))
	}
	if t.Parent == -1 {
		for _, ch := range t.Children {
			msg := pack(acc)
			msg[0] = tagDown
			ctx.SendQueued(ch, msg)
		}
		if until > ctx.Round() {
			spinUntil(ctx, until)
		}
		return acc
	}
	ctx.SendQueued(t.Parent, pack(acc))

	// Down phase: the root finishes at start+Height and its broadcast
	// reaches depth d exactly at start+Height+d. A childless node fuses
	// the down-wait with the trailing resynchronization spin.
	wait := start + t.Height + t.Depth
	if len(t.Children) == 0 && until > wait {
		wait = until
	}
	down := ctx.SkipUntil(wait)
	if len(down) != 1 || down[0].Payload[0] != tagDown || down[0].Payload[1] != op {
		panic(fmt.Sprintf("congest: node %d expected its down-chunk of op %d at round %d, got %d message(s)",
			ctx.ID(), op, ctx.Round(), len(down)))
	}
	result := acc
	for i, w := range down[0].Payload[2:] {
		result[i] = math.Float64frombits(w)
	}
	for _, ch := range t.Children {
		fwd := t.convMsg(len(down[0].Payload))
		fwd = append(fwd, down[0].Payload...)
		ctx.SendQueued(ch, fwd)
	}
	if until > ctx.Round() {
		spinUntil(ctx, until)
	}
	return result
}

// spinUntil advances rounds (delivering nothing) until the given absolute
// round, re-establishing lockstep after a message-driven phase. The spin
// is a single engine sleep (SkipUntil): the node leaves the barrier
// population and the skipped rounds advance — and are counted — without
// waking it. Receiving anything while spinning indicates a protocol bug.
func spinUntil(ctx *Ctx, round int) {
	if in := ctx.SkipUntil(round); len(in) != 0 {
		panic(fmt.Sprintf("congest: node %d received %d messages while resynchronizing",
			ctx.ID(), len(in)))
	}
}

// SpinUntil is the exported form of the resynchronization helper: the
// node ticks empty rounds until the given absolute round number.
func SpinUntil(ctx *Ctx, round int) { spinUntil(ctx, round) }
