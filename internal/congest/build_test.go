package congest

// The flooding BFS build, kept as the oracle of LayoutBFS: every node
// runs the protocol for real, and TestLayoutMatchesBuild demands the
// layout's trees, return rounds and Stats from it.

import "fmt"

// Internal message tags of the build.
const (
	tagAdopt    uint64 = 1 // [tag, depth, parentID+1] — BFS wave + parent notification
	tagReport   uint64 = 2 // [tag, height, size] — convergecast of subtree stats
	tagTreeDone uint64 = 3 // [tag, height<<32|size, syncRound] — downcast of tree completion
)

// nextDelivery ends the node's round and ticks rounds until one
// delivers it a message, and returns that round's messages: the node
// observes each message in the round a Next loop would, so rounds and
// traffic are those of the loop. A wait that no message ever ends runs
// into the MaxRounds cap.
func nextDelivery(ctx *Ctx) []Incoming {
	for {
		if in := ctx.Next(); len(in) > 0 {
			return in
		}
	}
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
	// notified[i] is neighbor index i's announced parentID+1 (0 = the
	// root's "no parent"), or noParentChoice while unheard-from: a flat
	// slice over the neighbor indexes instead of a per-node map.
	notified := make([]uint64, ctx.Degree())
	for i := range notified {
		notified[i] = noParentChoice
	}
	done := t.build(ctx, notified)
	// The completion payload goes on to the children unchanged; its last
	// word is the component's common return round.
	for _, ch := range t.Children {
		ctx.Send(ch, done)
	}
	t.sizeScratch(ctx.MaxWords())
	if done != nil {
		spinUntil(ctx, int(done[2]))
	}
	return t
}

// build runs the flooding protocol of BuildBFSTree at one node until
// the node knows the tree's geometry, and returns the completion
// payload [tagTreeDone, height<<32|size, syncRound] for its children
// (nil for an isolated root, which has none). It keeps the event loop
// out of BuildBFSTree, so the allocations before and after it run on a
// shallow stack.
//
// Every payload of the build is shared: a node's adopt wave sends one
// payload to all its neighbors, and the completion downcast forwards
// the parent's payload unchanged. Receivers only read them.
//
//go:noinline
func (t *Tree) build(ctx *Ctx, notified []uint64) Message {
	adopted := ctx.ID() == t.Root
	heard := 0
	reported := 0
	childrenKnown := false
	sentReport := false
	height := 0 // height of my subtree
	size := 1

	if adopted {
		sendAll(ctx, Message{tagAdopt, 0, 0}) // parentID+1 = 0 (none)
		if ctx.Degree() == 0 {
			t.Height, t.Size, t.SubtreeHeight = 0, 1, 0
			return nil
		}
	}

	// The build is event-driven: everything a node does reacts to a
	// received message, so the waits (for the adoption wave, the child
	// reports, the completion downcast) tick rounds until one delivers
	// (nextDelivery). The one round-driven action — the report deferred
	// by one round because the adopt wave just used the parent edge —
	// forces a single plain Next.
	deferredReport := false
	for {
		var ins []Incoming
		if deferredReport {
			deferredReport = false
			ins = ctx.Next()
		} else {
			ins = nextDelivery(ctx)
		}
		adoptedThisRound := false
		for _, in := range ins {
			switch in.Payload[0] {
			case tagAdopt:
				if i := ctx.NeighborIndex(in.From); notified[i] == noParentChoice {
					heard++
					notified[i] = in.Payload[2]
				}
				if !adopted {
					adopted = true
					adoptedThisRound = true
					t.Parent = in.From
					t.Depth = int(in.Payload[1]) + 1
					sendAll(ctx, Message{tagAdopt, uint64(t.Depth), uint64(t.Parent) + 1})
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
				return in.Payload
			default:
				buildTagFault(in.Payload[0])
			}
		}
		if adopted && !childrenKnown && heard == ctx.Degree() {
			childrenKnown = true
			t.adoptChildren(ctx, notified)
		}
		// Defer the report by one round if the adopt wave just went out on
		// the same edge (one message per edge per round).
		if childrenKnown && !sentReport && reported == len(t.Children) && adoptedThisRound {
			deferredReport = true
		}
		if childrenKnown && !sentReport && reported == len(t.Children) && !adoptedThisRound {
			sentReport = true
			t.SubtreeHeight = height
			if ctx.ID() == t.Root {
				t.Height = height
				t.Size = size
				sync := ctx.Round() + height + 3
				// Height and size are both < 2³² (one O(log n)-bit field
				// each), packed into one word to keep the completion message
				// within the report-message width.
				return Message{tagTreeDone, uint64(height)<<32 | uint64(size), uint64(sync)}
			}
			ctx.Send(t.Parent, Message{tagReport, uint64(height), uint64(size)})
		}
	}
}

// noParentChoice marks a neighbor of BuildBFSTree not yet heard from.
const noParentChoice = ^uint64(0)

// sendAll sends msg to every neighbor of the node.
//
//go:noinline
func sendAll(ctx *Ctx, msg Message) {
	for _, w := range ctx.Neighbors() {
		ctx.Send(int(w), msg)
	}
}

// adoptChildren records the neighbors that announced this node as their
// parent, ascending.
//
//go:noinline
func (t *Tree) adoptChildren(ctx *Ctx, notified []uint64) {
	me := uint64(ctx.ID()) + 1
	kids := 0
	for _, p := range notified {
		if p == me {
			kids++
		}
	}
	if kids == 0 {
		return
	}
	t.Children = make([]int, 0, kids)
	for i, w := range ctx.Neighbors() {
		if notified[i] == me {
			t.Children = append(t.Children, int(w))
		}
	}
}

// buildTagFault reports a message of an unknown tag during the build.
//
//go:noinline
func buildTagFault(tag uint64) {
	panic(fmt.Sprintf("congest: unexpected tag %d during tree build", tag))
}
