// Checkpoint/restore of engine runs at round barriers.
//
// The engine cannot serialize a blocked goroutine's stack, so a cut is a
// contract between the engine and the node program: the program calls
// Ctx.Commit(blob) at the top of a round — after consuming everything
// Next (or SkipUntil/NextDelivery) handed it, before sending anything in
// that round — handing the engine an opaque encoding of its full
// protocol state. The engine supplies the other half of the cut: at the
// barrier entering round R it stages the post-delivery queue backlog and
// the Stats as of R (both leader-only, single-threaded), and at the
// barrier leaving R it checks whether every live node of the domain
// committed at exactly R. If so, blobs + staged backlog + staged Stats
// form a consistent cut: every message a blob has "seen" is out of the
// queues, every message still in a queue is in the cut, and
// Stats.Rounds == R. Resuming restores the round counter, Stats and
// queue backlog, and the program rebuilds each node's state from the
// node's blob in the snapshot — the continuation is bit-identical to the
// uninterrupted run because the engine is deterministic and the cut
// captured its entire state.
//
// Round barriers are consistent cuts precisely because the engine is a
// lockstep barrier machine: at a barrier no node is mid-round, delivery
// has fully drained (the leader runs it single-threaded before anyone
// wakes), and the only in-flight state is the queued backlog the cut
// records. While a Checkpointer is attached the leader delivers inline
// even on multi-shard pools; by the engine's worker-count-independence
// invariant this changes nothing observable, and it makes every barrier
// a quiescent point where the leader may read all queues without locks.
package engine

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// NodeCut is one node's share of a cut: its committed state blob, and
// whether the node had already finished (CommitFinal) at the cut.
type NodeCut struct {
	ID   int32
	Done bool
	Blob []byte
}

// QueueCut is the undelivered backlog of one directed edge at the cut:
// the FIFO of edge Sender→receiver, where Slot is the edge's index in
// the sender's sorted adjacency (the sender's outbox slot). Payload
// words are deep copies — senders may recycle message buffers.
type QueueCut struct {
	Sender int32
	Slot   int32
	Msgs   []Message
}

// DomainCut is a consistent cut of one lockstep domain (connected
// component) at the barrier entering round Round: every node's committed
// blob, the undelivered queue backlog, and the domain's Stats as of that
// barrier (Stats.Rounds == Round always). Final marks the domain-end
// cut taken after every node finished with CommitFinal; a final cut has
// no queues and its Stats are the domain's final Stats.
type DomainCut struct {
	Root  int32
	Round int
	Final bool
	Stats Stats
	Nodes []NodeCut
	// Queues is ordered receiver-ascending then neighbor-index-ascending,
	// a canonical order independent of the worker count, so two cuts of
	// the same state encode byte-identically.
	Queues []QueueCut
}

// RunSnapshot is a consistent cut of a whole run: at most one DomainCut
// per lockstep domain, ordered by root. Domains without a cut resume
// from scratch, which is exactly right — domains are independent, so a
// run restored from per-domain cuts taken at different rounds is still
// a legal global state.
type RunSnapshot struct {
	Cuts []DomainCut
}

// Checkpointer collects the cuts of a run. Attach one via
// Config.Checkpoint; read it after (or during, via OnCut) the run.
type Checkpointer struct {
	// KeepAll retains every cut instead of only the latest per domain,
	// enabling At() sweeps over all checkpoint rounds.
	KeepAll bool
	// OnCut, when non-nil, observes each cut as it is taken. Calls are
	// serialized, but may come from any domain's leader goroutine; the
	// callback must not block on the run's own progress. The cut and its
	// contents are immutable.
	OnCut func(*DomainCut)

	mu     sync.Mutex
	latest map[int32]*DomainCut
	all    map[int32][]*DomainCut
	cbMu   sync.Mutex
}

func (ck *Checkpointer) record(cut *DomainCut) {
	ck.mu.Lock()
	if ck.latest == nil {
		ck.latest = make(map[int32]*DomainCut)
	}
	ck.latest[cut.Root] = cut
	if ck.KeepAll {
		if ck.all == nil {
			ck.all = make(map[int32][]*DomainCut)
		}
		ck.all[cut.Root] = append(ck.all[cut.Root], cut)
	}
	cb := ck.OnCut
	ck.mu.Unlock()
	if cb != nil {
		ck.cbMu.Lock()
		cb(cut)
		ck.cbMu.Unlock()
	}
}

// Latest assembles a RunSnapshot from the most recent cut of every
// domain, or nil if no cut has been taken.
func (ck *Checkpointer) Latest() *RunSnapshot {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	if len(ck.latest) == 0 {
		return nil
	}
	snap := &RunSnapshot{Cuts: make([]DomainCut, 0, len(ck.latest))}
	//sbw:orderinvariant cut collection only; Cuts is sorted by Root before the snapshot is returned
	for _, cut := range ck.latest {
		snap.Cuts = append(snap.Cuts, *cut)
	}
	slices.SortFunc(snap.Cuts, func(a, b DomainCut) int { return int(a.Root) - int(b.Root) })
	return snap
}

// At assembles the snapshot a crash after the barrier of round k would
// restore: for every domain, its latest cut with Round ≤ k. Domains with
// no such cut are omitted and resume from scratch. Requires KeepAll for
// rounds older than each domain's latest cut. Returns a (possibly empty)
// snapshot; resuming from an empty snapshot is a fresh run.
func (ck *Checkpointer) At(k int) *RunSnapshot {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	snap := &RunSnapshot{}
	pick := func(cuts []*DomainCut) *DomainCut {
		var best *DomainCut
		for _, c := range cuts {
			if c.Round <= k && (best == nil || c.Round > best.Round) {
				best = c
			}
		}
		return best
	}
	if ck.KeepAll {
		//sbw:orderinvariant per-domain best-cut selection; Cuts is sorted by Root before the snapshot is returned
		for _, cuts := range ck.all {
			if best := pick(cuts); best != nil {
				snap.Cuts = append(snap.Cuts, *best)
			}
		}
	} else {
		//sbw:orderinvariant cut collection only; Cuts is sorted by Root before the snapshot is returned
		for _, cut := range ck.latest {
			if cut.Round <= k {
				snap.Cuts = append(snap.Cuts, *cut)
			}
		}
	}
	slices.SortFunc(snap.Cuts, func(a, b DomainCut) int { return int(a.Root) - int(b.Root) })
	return snap
}

// CutRounds returns the sorted distinct rounds at which cuts were taken,
// across all domains — the sweep points of a crash-at-every-round test.
func (ck *Checkpointer) CutRounds() []int {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	seen := make(map[int]struct{})
	if ck.KeepAll {
		//sbw:orderinvariant fills a set; the set's contents do not depend on insertion order
		for _, cuts := range ck.all {
			for _, c := range cuts {
				seen[c.Round] = struct{}{}
			}
		}
	} else {
		//sbw:orderinvariant fills a set; the set's contents do not depend on insertion order
		for _, c := range ck.latest {
			seen[c.Round] = struct{}{}
		}
	}
	rounds := make([]int, 0, len(seen))
	//sbw:orderinvariant key collection only; rounds is sorted before being returned
	for r := range seen {
		rounds = append(rounds, r)
	}
	slices.Sort(rounds)
	return rounds
}

// CheckpointEnabled reports whether a Checkpointer is attached to the
// run. Programs gate their Commit encoding on it to keep normal runs
// free of the serialization cost.
func (c *Ctx) CheckpointEnabled() bool { return c.r.ck != nil }

// Commit hands the engine an opaque encoding of this node's complete
// protocol state, valid at the top of the current round: the blob must
// reflect every message the node has consumed, and the node must not
// have sent anything yet this round. A cut is taken at a round exactly
// when every live node of the domain commits in it. The blob is copied.
// No-op when no Checkpointer is attached.
func (c *Ctx) Commit(blob []byte) {
	if c.r.ck == nil {
		return
	}
	c.commitBlob = append(c.commitBlob[:0], blob...)
	c.commitRound = c.r.round
	c.commitValid = true
}

// CommitFinal is Commit for a node about to return: the blob is the
// node's final state, and the node must neither send nor receive
// afterwards. Once every node of a domain has committed final, the
// domain records a final cut with the domain's finished Stats.
func (c *Ctx) CommitFinal(blob []byte) {
	if c.r.ck == nil {
		return
	}
	c.commitBlob = append(c.commitBlob[:0], blob...)
	c.commitRound = c.r.round
	c.commitValid = true
	c.commitDone = true
}

// stageCut snapshots the leader-side half of a potential cut at the
// barrier entering round r.round, after delivery and before any node
// wakes: the Stats as of this barrier (base counters plus the quiescent
// worker counters, merged non-destructively into a copy) and the
// undelivered queue backlog. Leader-only; all senders are parked.
func (r *runner) stageCut() {
	r.stagedValid = true
	r.stagedRound = r.round
	st := r.stats
	st.MergeWorkers(r.wstats)
	r.foldCharged(&st)
	r.stagedStats = st
	r.stagedQueues = r.captureQueues()
}

// captureQueues deep-copies every non-empty edge queue of the domain, in
// canonical order (receiver domain index ascending, then neighbor index
// ascending). It walks the same receiver-dirty flags and pending bitmaps
// delivery walks — read-only — so its cost tracks the actual backlog,
// not the edge set.
func (r *runner) captureQueues() []QueueCut {
	var cuts []QueueCut
	for idx := range r.nodes {
		if !r.rdirty[idx].Load() {
			continue
		}
		c := r.ctxs[r.nodes[idx]]
		for wi := range c.pending {
			word := c.pending[wi].Load()
			for rest := word; rest != 0; rest &= rest - 1 {
				bit := bits.TrailingZeros64(rest)
				i := wi<<6 + bit
				sc := r.ctxs[c.nbr[i]]
				slot := c.srcSlot[i]
				q := &sc.outbox[slot]
				if q.size() == 0 {
					continue
				}
				qc := QueueCut{Sender: c.nbr[i], Slot: slot, Msgs: make([]Message, 0, q.size())}
				for j := q.head; j < len(q.buf); j++ {
					qc.Msgs = append(qc.Msgs, slices.Clone(q.buf[j]))
				}
				cuts = append(cuts, qc)
			}
		}
	}
	return cuts
}

// tryFinalizeCut runs at the entry of completeRound — the barrier
// leaving round r.round, with every node parked — and records a cut when
// the staged state is for this round and every node of the domain either
// finished or committed in exactly this round. Rounds in which at least
// one live node did not commit (it was mid-phase, or sleeping across the
// round) yield no cut; rounds in which the last nodes finished are
// covered by the domain-end final cut instead, whose Stats include the
// finishing round's traffic.
func (r *runner) tryFinalizeCut() {
	if r.ck == nil || !r.stagedValid || r.stagedRound != r.round {
		return
	}
	live := 0
	for _, v := range r.nodes {
		c := r.ctxs[v]
		if c.commitDone {
			continue
		}
		if !c.commitValid || c.commitRound != r.round {
			return
		}
		live++
	}
	if live == 0 {
		return
	}
	cut := &DomainCut{
		Root:   r.nodes[0],
		Round:  r.round,
		Stats:  r.stagedStats,
		Nodes:  make([]NodeCut, len(r.nodes)),
		Queues: r.stagedQueues,
	}
	for i, v := range r.nodes {
		c := r.ctxs[v]
		cut.Nodes[i] = NodeCut{ID: v, Done: c.commitDone, Blob: slices.Clone(c.commitBlob)}
	}
	r.stagedQueues = nil // ownership moved into the cut
	r.ck.record(cut)
}

// finalCut records the domain-end cut once the domain has fully
// finished: every node committed final, the pool is closed, and r.stats
// holds the domain's merged final counters. Skipped unless every node
// finished through CommitFinal.
func (r *runner) finalCut() {
	for _, v := range r.nodes {
		if !r.ctxs[v].commitDone {
			return
		}
	}
	cut := &DomainCut{
		Root:  r.nodes[0],
		Round: r.round,
		Final: true,
		Stats: r.stats,
		Nodes: make([]NodeCut, len(r.nodes)),
	}
	for i, v := range r.nodes {
		cut.Nodes[i] = NodeCut{ID: v, Done: true, Blob: slices.Clone(r.ctxs[v].commitBlob)}
	}
	r.ck.record(cut)
}

// validateCut structurally checks one DomainCut against the component it
// claims to restore, before any domain starts: node set identity, the
// Stats/round invariant, and queue sanity (known sender, valid slot,
// capped widths). A final cut must have no queues.
func validateCut(cut *DomainCut, comp []int32, degreeOf func(int) int32, cfg Config) error {
	if cut.Round < 0 {
		return fmt.Errorf("%s: resume: domain %d cut has negative round %d", cfg.Model, cut.Root, cut.Round)
	}
	if cut.Stats.Rounds != cut.Round {
		return fmt.Errorf("%s: resume: domain %d cut Stats.Rounds=%d != Round=%d", cfg.Model, cut.Root, cut.Stats.Rounds, cut.Round)
	}
	if len(cut.Nodes) != len(comp) {
		return fmt.Errorf("%s: resume: domain %d cut has %d nodes, component has %d", cfg.Model, cut.Root, len(cut.Nodes), len(comp))
	}
	allDone := true
	for i, nc := range cut.Nodes {
		if nc.ID != comp[i] {
			return fmt.Errorf("%s: resume: domain %d cut node %d is %d, component has %d", cfg.Model, cut.Root, i, nc.ID, comp[i])
		}
		if !nc.Done {
			allDone = false
		}
	}
	if allDone && !cut.Final {
		return fmt.Errorf("%s: resume: domain %d cut has every node done but is not final", cfg.Model, cut.Root)
	}
	if cut.Final {
		if !allDone {
			return fmt.Errorf("%s: resume: domain %d final cut has unfinished nodes", cfg.Model, cut.Root)
		}
		if len(cut.Queues) != 0 {
			return fmt.Errorf("%s: resume: domain %d final cut has queued messages", cfg.Model, cut.Root)
		}
	}
	for _, qc := range cut.Queues {
		if _, ok := slices.BinarySearch(comp, qc.Sender); !ok {
			return fmt.Errorf("%s: resume: domain %d cut queues from %d, not in the component", cfg.Model, cut.Root, qc.Sender)
		}
		if qc.Slot < 0 || qc.Slot >= degreeOf(int(qc.Sender)) {
			return fmt.Errorf("%s: resume: domain %d cut queue slot %d out of range for sender %d", cfg.Model, cut.Root, qc.Slot, qc.Sender)
		}
		if len(qc.Msgs) == 0 {
			return fmt.Errorf("%s: resume: domain %d cut has an empty queue for sender %d", cfg.Model, cut.Root, qc.Sender)
		}
		for _, m := range qc.Msgs {
			if len(m) == 0 || len(m) > cfg.MaxWords {
				return fmt.Errorf("%s: resume: domain %d cut queue message of %d words violates the cap %d", cfg.Model, cut.Root, len(m), cfg.MaxWords)
			}
		}
	}
	return nil
}

// restoreCut applies a validated cut to a freshly carved domain, before
// any node goroutine starts: round counter and Stats, the final blobs of
// done nodes (which are never spawned), and the queued backlog,
// re-activating the dirty accounting through the same noteQueued path
// live sends use.
func (r *runner) restoreCut(cut *DomainCut) {
	r.round = cut.Round
	r.stats = cut.Stats
	for i, v := range r.nodes {
		nc := &cut.Nodes[i]
		c := r.ctxs[v]
		if nc.Done {
			c.commitDone = true
			c.commitValid = true
			c.commitRound = cut.Round
			c.commitBlob = slices.Clone(nc.Blob)
		}
	}
	for qi := range cut.Queues {
		qc := &cut.Queues[qi]
		sc := r.ctxs[qc.Sender]
		for _, m := range qc.Msgs {
			sc.noteQueued(int(qc.Slot))
			sc.outbox[qc.Slot].push(slices.Clone(m))
		}
	}
}

// liveNodes counts the nodes of a cut that have not finished — the
// barrier population of the resumed domain.
func liveNodes(cut *DomainCut) int {
	live := 0
	for _, nc := range cut.Nodes {
		if !nc.Done {
			live++
		}
	}
	return live
}
