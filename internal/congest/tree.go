package congest

import (
	"fmt"
	"math"

	"smallbandwidth/internal/graph"
)

// Internal message tags for the tree primitives. User protocols should
// use tags ≥ UserTagBase.
const (
	tagUp   uint64 = 4 // [tag, op, values...] — partial sum toward the root
	tagDown uint64 = 5 // [tag, op, values...] — total toward the leaves

	// UserTagBase is the first tag value available to user protocols.
	UserTagBase uint64 = 16
)

// Tree is a node's local view of a BFS spanning tree of the communication
// graph (BFSLayout.Tree). Aggregation over the tree
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
	// sleep instead of one resumption per round.
	SubtreeHeight int

	// Reusable ConvergeSumLockstepTo scratch (see that function): the
	// result vector and the outgoing message buffers of the node's last
	// aggregation, sized once by sizeScratch, so no aggregation
	// allocates.
	convAcc  []float64
	convMsgs [][]uint64
	convNext int
}

// BFSLayout is the spanning forest that the deterministic flooding
// build of a BFS tree leaves on a graph, computed from the graph alone:
// one tree per connected component, rooted at its smallest ID, with
// the round in which the build returns and the traffic it sends. A
// protocol can charge that traffic (Ctx.ChargeTraffic) and sleep to that
// round (SkipUntil) instead of running the build, and its Stats come
// out bit-identical. The build protocol itself is the layout's oracle
// in this package's tests.
//
// The flooding build works as follows. The root sends an adopt message
// [depth, parent] to every neighbor in round 0. A node adopts in the
// round the first adopt messages reach it, taking the smallest-ID
// sender as its parent, and sends its own adopt message to every
// neighbor. Once it has heard every neighbor and every child's report,
// it reports [subtree height, subtree size] to its parent, one round
// later if it adopted in that same round (its adopt message holds the
// edge). Once the root has every report, it sends a completion message
// down the tree that names a common return round. Each message is 3
// words.
type BFSLayout struct {
	Parent        []int32 // tree parent, −1 at a root
	Depth         []int32 // distance from the root
	SubtreeHeight []int32 // height of the node's own subtree: 0 at a leaf, the tree's Height at its root

	// Trees holds one entry per connected component, ordered by root.
	Trees []TreeLayout

	comp []int32 // by node: the index of its tree in Trees
	// Node v's children are child[childOff[v]:childOff[v+1]], ascending.
	childOff []int32
	child    []int32
}

// TreeLayout is one component's tree: its root (the smallest member),
// its size and height, and what the flooding build costs on it.
// Build.Rounds is the round in which every member returns from the
// build; a singleton returns in round 0 and sends nothing.
type TreeLayout struct {
	Root, Size, Height int
	Build              Stats
}

// buildWords is the width of every message of the flooding build.
const buildWords = 3

// LayoutBFS lays out the flooding build's spanning forest on g. With
// known(v) the round in which v has heard every neighbor's adopt
// message (the largest neighbor depth plus one), v reports in round
// rep(v) = max(known(v), rep(c)+1 over its children c), or one round
// later when that is the round it adopted in. Every member returns in
// round rep(root) + Height + 3. The build sends one adopt message per
// arc, and one report and one completion per tree edge.
func LayoutBFS(g *graph.Graph) *BFSLayout {
	n := g.N()
	off, nbr := g.CSR()
	l := &BFSLayout{
		Parent:        make([]int32, n),
		Depth:         make([]int32, n),
		SubtreeHeight: make([]int32, n),
		comp:          make([]int32, n),
		childOff:      make([]int32, n+1),
	}
	for v := range l.Depth {
		l.Depth[v] = -1
	}
	// order lists every node in BFS order, component after component,
	// so depths never decrease within a component's run of it.
	order := make([]int32, 0, n)
	for s := 0; s < n; s++ {
		if l.Depth[s] >= 0 {
			continue
		}
		ci := int32(len(l.Trees))
		first := len(order)
		l.Depth[s], l.comp[s] = 0, ci
		order = append(order, int32(s))
		for qi := first; qi < len(order); qi++ {
			u := order[qi]
			for _, w := range nbr[off[u]:off[u+1]] {
				if l.Depth[w] < 0 {
					l.Depth[w], l.comp[w] = l.Depth[u]+1, ci
					order = append(order, w)
				}
			}
		}
		l.Trees = append(l.Trees, TreeLayout{Root: s, Size: len(order) - first})
	}
	// Parents: the smallest-ID neighbor one layer up, the first adopt
	// message in sorted sender order. Filling the children in ascending
	// node order keeps each child list ascending.
	for v := 0; v < n; v++ {
		l.Parent[v] = -1
		if l.Depth[v] == 0 {
			continue
		}
		for _, w := range nbr[off[v]:off[v+1]] {
			if l.Depth[w] == l.Depth[v]-1 {
				l.Parent[v] = w
				break
			}
		}
		l.childOff[l.Parent[v]+1]++
	}
	for v := 0; v < n; v++ {
		l.childOff[v+1] += l.childOff[v]
	}
	l.child = make([]int32, l.childOff[n])
	fill := make([]int32, n)
	copy(fill, l.childOff[:n])
	for v := 0; v < n; v++ {
		if p := l.Parent[v]; p >= 0 {
			l.child[fill[p]] = int32(v)
			fill[p]++
		}
	}
	// Subtree heights and report rounds, deepest nodes first, so every
	// child is done before its parent.
	rep := fill // reused: one report round per node
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		known := int32(0)
		for _, w := range nbr[off[v]:off[v+1]] {
			known = max(known, l.Depth[w]+1)
		}
		r, h := known, int32(0)
		for _, c := range l.Children(int(v)) {
			r = max(r, rep[c]+1)
			h = max(h, l.SubtreeHeight[c]+1)
		}
		if l.Parent[v] >= 0 && r == l.Depth[v] {
			r++
		}
		rep[v], l.SubtreeHeight[v] = r, h
	}
	first := 0
	for ci := range l.Trees {
		tl := &l.Trees[ci]
		tl.Height = int(l.SubtreeHeight[tl.Root])
		members := order[first : first+tl.Size]
		first += tl.Size
		if tl.Size == 1 {
			continue
		}
		msgs := int64(2 * (tl.Size - 1))
		for _, v := range members {
			msgs += int64(off[v+1] - off[v])
		}
		tl.Build = Stats{
			Rounds:          int(rep[tl.Root]) + tl.Height + 3,
			Messages:        msgs,
			Words:           buildWords * msgs,
			MaxMessageWords: buildWords,
		}
	}
	return l
}

// Children returns node v's tree children, ascending. Read-only.
func (l *BFSLayout) Children(v int) []int32 {
	return l.child[l.childOff[v]:l.childOff[v+1]]
}

// TreeOf returns the layout of node v's tree.
func (l *BFSLayout) TreeOf(v int) *TreeLayout { return &l.Trees[l.comp[v]] }

// Tree returns node v's view of its tree, as the flooding build leaves
// it, for aggregations with ConvergeSumLockstepTo.
func (l *BFSLayout) Tree(v int) *Tree {
	tl := l.TreeOf(v)
	t := &Tree{
		Root:          tl.Root,
		Parent:        int(l.Parent[v]),
		Depth:         int(l.Depth[v]),
		Height:        tl.Height,
		Size:          tl.Size,
		SubtreeHeight: int(l.SubtreeHeight[v]),
	}
	if kids := l.Children(v); len(kids) > 0 {
		t.Children = make([]int, len(kids))
		for i, c := range kids {
			t.Children[i] = int(c)
		}
	}
	return t
}

// convMsg returns the next reusable outgoing-message buffer, empty with
// capacity MaxWords. Buffer k of call i is only rewritten on call i+1,
// after the lockstep schedule guarantees its receiver consumed (and
// flipped past) the payload: every payload of one aggregation is read by
// round start+Height+maxDepth, and the lockstep contract makes the next
// call start at or after that round, with the engine's round loop
// ordering the old read before the new write. A call takes at most one
// buffer per child plus one, which is what sizeScratch provides.
func (t *Tree) convMsg() Message {
	m := t.convMsgs[t.convNext][:0]
	t.convNext++
	return m
}

// pack fills the next reusable buffer with one aggregation chunk:
// [tag, op, data...].
func (t *Tree) pack(tag, op uint64, data []float64) Message {
	msg := append(t.convMsg(), tag, op)
	for _, f := range data {
		msg = append(msg, math.Float64bits(f))
	}
	return msg
}

// sizeScratch allocates the aggregation scratch a call of
// ConvergeSumLockstepTo can use on this node: one result vector of
// words−2 values and, carved from one array, one message buffer of
// words words per child plus one (a node sends one chunk up and one
// down to each child per call). A tree gets it at its first
// aggregation, or earlier from a caller whose node stack is shallower
// there.
//
//go:noinline
func (t *Tree) sizeScratch(words int) {
	if words > 2 {
		t.convAcc = make([]float64, words-2)
	}
	n := len(t.Children) + 1
	buf := make([]uint64, n*words)
	t.convMsgs = make([][]uint64, n)
	for k := range t.convMsgs {
		t.convMsgs[k] = buf[k*words : k*words : (k+1)*words]
	}
}

// ConvergeSumLockstepTo computes the component-wise sum of vec over all
// nodes of the tree (same length everywhere, at most MaxWords−2 values)
// and returns the total at every node in round until. Every tree node
// must enter in the same round start, as after a SpinUntil, and until must be at least start+Height+Depth at every
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
// waits run as single engine sleeps (SkipUntil) instead of one
// resumption per round, and a childless node fuses its wait for the total
// with the trailing sleep to until. A violated contract surfaces as a
// protocol panic, not a wrong sum.
//
// The returned slice and the outgoing message buffers live on the Tree
// and are reused by the next call on it, so no call allocates (the
// node's stack stays shallow, see engine.Ctx): callers must copy the
// result before aggregating again.
func ConvergeSumLockstepTo(ctx *Ctx, t *Tree, op uint64, vec []float64, until int) []float64 {
	if len(vec) == 0 {
		panic("congest: ConvergeSumLockstepTo of empty vector")
	}
	if len(vec) > ctx.MaxWords()-2 {
		panic("congest: ConvergeSumLockstepTo vector exceeds one message")
	}
	if t.convMsgs == nil {
		t.sizeScratch(ctx.MaxWords())
	}
	start := ctx.Round()
	t.convNext = 0
	acc := t.convAcc[:len(vec)]
	copy(acc, vec)

	// Up phase: child c's chunk arrives at start+h_c+1; all have arrived
	// by start+SubtreeHeight, when this node forwards its partial sum.
	got := 0
	for _, in := range ctx.SkipUntil(start + t.SubtreeHeight) {
		if in.Payload[0] != tagUp || in.Payload[1] != op {
			upFault(ctx.ID(), in.Payload[0], in.Payload[1], op)
		}
		for i, w := range in.Payload[2:] {
			acc[i] += math.Float64frombits(w)
		}
		got++
	}
	if got != len(t.Children) {
		chunksFault(ctx.ID(), got, len(t.Children))
	}
	if t.Parent == -1 {
		t.sendDown(ctx, tagDown, op, acc)
		if until > ctx.Round() {
			spinUntil(ctx, until)
		}
		return acc
	}
	ctx.SendQueued(t.Parent, t.pack(tagUp, op, acc))

	// Down phase: the root finishes at start+Height and its broadcast
	// reaches depth d exactly at start+Height+d. A childless node fuses
	// the down-wait with the trailing resynchronization spin.
	wait := start + t.Height + t.Depth
	if len(t.Children) == 0 && until > wait {
		wait = until
	}
	down := ctx.SkipUntil(wait)
	if len(down) != 1 || down[0].Payload[0] != tagDown || down[0].Payload[1] != op {
		downFault(ctx.ID(), op, ctx.Round(), len(down))
	}
	result := acc
	for i, w := range down[0].Payload[2:] {
		result[i] = math.Float64frombits(w)
	}
	t.forward(ctx, down[0].Payload)
	if until > ctx.Round() {
		spinUntil(ctx, until)
	}
	return result
}

// sendDown queues the root's total to every child, each in a buffer of
// its own.
//
//go:noinline
func (t *Tree) sendDown(ctx *Ctx, tag, op uint64, acc []float64) {
	for _, ch := range t.Children {
		ctx.SendQueued(ch, t.pack(tag, op, acc))
	}
}

// forward queues a copy of the total's down-chunk to every child.
//
//go:noinline
func (t *Tree) forward(ctx *Ctx, down Message) {
	for _, ch := range t.Children {
		ctx.SendQueued(ch, append(t.convMsg(), down...))
	}
}

// The protocol faults of the tree primitives. Each is kept out of line
// so that its formatting frame is not part of the aggregation's, which
// sits under every park of a node's aggregation wave.

//go:noinline
func upFault(id int, tag, gotOp, op uint64) {
	panic(fmt.Sprintf("congest: node %d got (tag %d, op %d) during up-phase of op %d",
		id, tag, gotOp, op))
}

//go:noinline
func chunksFault(id, got, want int) {
	panic(fmt.Sprintf("congest: node %d got %d of %d child chunks by its schedule",
		id, got, want))
}

//go:noinline
func downFault(id int, op uint64, round, got int) {
	panic(fmt.Sprintf("congest: node %d expected its down-chunk of op %d at round %d, got %d message(s)",
		id, op, round, got))
}

// spinUntil advances rounds (delivering nothing) until the given absolute
// round, re-establishing lockstep after a message-driven phase. The spin
// is a single engine sleep (SkipUntil): the node parks and the skipped
// rounds advance — and are counted — without resuming it. Receiving anything while spinning indicates a protocol bug.
func spinUntil(ctx *Ctx, round int) {
	if in := ctx.SkipUntil(round); len(in) != 0 {
		spinFault(ctx.ID(), len(in))
	}
}

//go:noinline
func spinFault(id, got int) {
	panic(fmt.Sprintf("congest: node %d received %d messages while resynchronizing",
		id, got))
}

// SpinUntil is the exported form of the resynchronization helper: the
// node ticks empty rounds until the given absolute round number.
func SpinUntil(ctx *Ctx, round int) { spinUntil(ctx, round) }
