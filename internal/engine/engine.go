// Package engine is the shared sharded round engine under all three
// model simulators of this repository (CONGEST, CONGESTED CLIQUE, MPC).
// It owns one copy of the parallel hot path:
//
//   - a barrier that is a single atomic counter (no global mutex), with
//     nodes sleeping on per-shard release channels so wake-up is batched
//     shard by shard;
//   - message delivery sharded by *receiver* across a pool of
//     GOMAXPROCS workers with per-worker stats, merged once the workers
//     are quiescent (sums and max, so totals are order-independent);
//   - double-buffered inboxes and head-indexed outbox FIFOs that recycle
//     their backing arrays, so steady-state rounds allocate nothing per
//     edge;
//   - a sharded dirty-edge counter that skips the delivery scan entirely
//     on quiet rounds, plus per-receiver dirty flags that keep a busy
//     round's scan proportional to actual traffic instead of the edge
//     set;
//   - sleep primitives that take spinning nodes out of the barrier
//     population: SkipUntil (sleep to a known round, e.g. a scheduled
//     resynchronization) and NextDelivery (sleep until the next message
//     arrives), with skipped rounds advancing — and counted — on the
//     other nodes' schedule or fast-forwarded when everyone sleeps;
//   - one independent lockstep domain per connected component of the
//     topology: components exchange no messages, so each runs its own
//     barrier and pool (bounded to GOMAXPROCS domains in flight), and a
//     run over a disconnected topology is the parallel composition of
//     its components — max rounds, summed traffic.
//
// Receiver-sharding keeps everything deterministic: each inbox is filled
// by exactly one worker, in ascending sender order — the exact delivery
// order of a sequential scan — so Stats and protocol behavior are
// bit-for-bit independent of the worker count, and the sleep primitives
// wake a node in exactly the round a Next loop would have acted.
//
// The engine is parameterized over an endpoint Topology. The CONGEST
// simulator (internal/congest) is a thin adapter passing its
// communication graph and running blocking per-node programs through
// RunWithDomains. The CLIQUE simulator runs its data-parallel all-to-all exchanges
// on the same Pool via Scatter (all-to-all topology), and the MPC
// Section 5 tools move records machine-to-machine through the Pool with
// the per-round IO accounting folded into the shard workers.
package engine

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
)

// Message is the payload of one message: a short slice of 64-bit words.
// In the standard parameterization one word models Θ(log n) bits.
type Message []uint64

// Incoming is a delivered message together with its sender's ID.
type Incoming struct {
	From    int
	Payload Message
}

// Directed is an outgoing message with an explicit destination, the unit
// of the data-parallel exchange fabrics built on Scatter.
type Directed struct {
	To      int32
	Payload Message
}

// Topology describes the endpoint structure the engine runs on: a fixed
// set of endpoints 0..N-1 and, for each, the sorted list of peers it may
// exchange messages with. *graph.Graph satisfies it directly.
type Topology interface {
	N() int
	// Neighbors returns the sorted peer IDs of v. The engine retains the
	// slice; it must not change during a run.
	Neighbors(v int) []int32
}

// ArcTopology is the optional flat-layout extension of Topology: a
// topology stored in compressed-sparse-row form exposes its offset
// table and arc arena so the engine's setup reads degrees straight off
// the offset table and slices neighbor rows out of the arena, instead
// of materializing each row through the interface. *graph.Graph
// satisfies it; topologies that don't are handled through the plain
// Neighbors path at identical behavior.
type ArcTopology interface {
	Topology
	// CSR returns the offset table (len N()+1) and arc arena: endpoint
	// v's peers are nbr[off[v]:off[v+1]], sorted ascending. The engine
	// retains both slices; they must not change during a run.
	CSR() (off, nbr []int32)
}

// Config controls a run.
type Config struct {
	// MaxWords is the bandwidth cap per edge per direction per round, in
	// 64-bit words. Zero means the default of 4 words (≈ 4·64 bits, a
	// constant number of O(log n)-bit words).
	MaxWords int
	// MaxRounds aborts runs that exceed this many rounds (default 1<<22),
	// turning protocol livelocks into test failures instead of hangs.
	MaxRounds int
	// Model prefixes error messages with the simulated model's name
	// ("congest", "clique", ...) so violations read in the caller's
	// vocabulary. Empty means "engine".
	Model string
	// Workers bounds the delivery/compute parallelism of the run: the
	// worker count of each domain's shard pool and the number of lockstep
	// domains in flight. Zero inherits GOMAXPROCS (the historical
	// behavior); negative values or values beyond MaxWorkers are rejected
	// with a diagnostic before any node program starts. The worker count
	// never changes results — receiver-sharded delivery keeps Stats and
	// protocol behavior bit-identical at any setting (the
	// *DeterministicAcrossShards suites pin this).
	Workers int
	// Checkpoint, when non-nil, collects consistent per-domain cuts at
	// the round barriers in which every node committed its state (see
	// Ctx.Commit). While attached, delivery runs inline on the round
	// leader even on multi-shard pools — observationally identical by the
	// worker-independence invariant, and it makes every barrier a
	// quiescent point the leader can capture without locks.
	Checkpoint *Checkpointer
	// Resume, when non-nil, restores each domain from its cut in the
	// snapshot before any node program starts: round counter, Stats and
	// queued backlog; the program reads its nodes' blobs from the
	// snapshot itself. Domains without a cut start fresh; nodes marked
	// done are never spawned.
	Resume *RunSnapshot
}

// MaxWorkers caps Config.Workers: beyond this the setting is a typo or
// an attempt to use a worker count as something else, not a parallelism
// choice any host could honor.
const MaxWorkers = 4096

func (c Config) withDefaults() Config {
	if c.MaxWords == 0 {
		c.MaxWords = 4
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 1 << 22
	}
	if c.Model == "" {
		c.Model = "engine"
	}
	return c
}

// Stats aggregates the measured cost of a run.
type Stats struct {
	Rounds          int   // number of synchronous rounds executed
	Messages        int64 // messages delivered
	Words           int64 // total words delivered
	MaxMessageWords int   // widest single message observed
}

// errAborted unwinds node goroutines when any node fails.
var errAborted = errors.New("engine: run aborted")

// fifo is a per-directed-edge message queue. The head index replaces
// memmove-on-pop, and a drained queue rewinds to reuse its backing
// array, so steady-state traffic does not allocate.
type fifo struct {
	buf  []Message
	head int
}

func (q *fifo) push(m Message) { q.buf = append(q.buf, m) }

func (q *fifo) size() int { return len(q.buf) - q.head }

func (q *fifo) pop() Message {
	m := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	} else if q.head >= 32 && q.head*2 >= len(q.buf) {
		// A queue that never fully drains (steady backlog) would advance
		// head and len in lockstep forever; compacting once the dead
		// prefix reaches half the slice keeps memory O(backlog) at
		// amortized O(1) per pop.
		n := copy(q.buf, q.buf[q.head:])
		for i := n; i < len(q.buf); i++ {
			q.buf[i] = nil
		}
		q.buf = q.buf[:n]
		q.head = 0
	}
	return m
}

// Ctx is a node's handle to the simulation. All methods must be called
// only from that node's own goroutine.
type Ctx struct {
	r     *runner
	id    int
	shard int
	nbr   []int32 // peer node IDs, sorted
	// srcSlot[i] is this node's index in peer nbr[i]'s adjacency list:
	// the slot of edge nbr[i]→me in that peer's outbox. It lets the
	// delivery workers pull from sender queues receiver-side without any
	// lookups.
	srcSlot []int32

	outbox  []fifo // per-peer FIFO of pending messages
	sentNow []bool // direct Send already used this round, per peer

	// inboxes double-buffers delivery: workers fill inboxes[cur] while
	// the node still holds the slice returned by the previous Next.
	inboxes [2][]Incoming
	cur     int

	// domIdx is this node's position in its runner's nodes slice; it
	// indexes the runner's receiver-dirty array.
	domIdx int32

	// pending is a bitmap over this node's neighbor indexes: bit i set
	// means neighbor nbr[i]'s queue toward this node is non-empty.
	// Senders set bits (CAS — concurrent senders share words) when an
	// edge queue activates; the delivery worker owning this receiver
	// walks only the set bits instead of probing every inbound queue,
	// and rewrites each word plainly (delivery runs with all senders
	// parked at the barrier).
	pending []atomic.Uint64

	// waiting marks a node sleeping in NextDelivery; wakeCh is closed by
	// the delivery side in the first round that hands it a message.
	waiting bool
	wakeCh  chan struct{}

	// Checkpoint state. commitBlob/commitRound/commitValid hold the last
	// Ctx.Commit of this node (written by the node's goroutine, read by
	// the round leader at the barrier — ordered by the pending-counter
	// RMW chain, like all other node state the leader touches).
	// commitDone marks a CommitFinal.
	commitBlob  []byte
	commitRound int
	commitValid bool
	commitDone  bool
}

// ID returns this node's identifier.
func (c *Ctx) ID() int { return c.id }

// Degree returns this node's degree (peer count).
func (c *Ctx) Degree() int { return len(c.nbr) }

// Neighbors returns the sorted IDs of this node's peers. Read-only.
func (c *Ctx) Neighbors() []int32 { return c.nbr }

// MaxWords returns the per-message bandwidth cap of the simulation.
func (c *Ctx) MaxWords() int { return c.r.cfg.MaxWords }

// NeighborIndex returns the index of peer ID in Neighbors(), or -1.
// It is a binary search over the sorted adjacency slice: cache-resident
// for the small degrees typical of CONGEST inputs, and with none of the
// footprint of a per-node hash map.
func (c *Ctx) NeighborIndex(id int) int {
	if i, ok := slices.BinarySearch(c.nbr, int32(id)); ok {
		return i
	}
	return -1
}

// Round returns the current round number (starting at 0).
func (c *Ctx) Round() int { return c.r.round }

// Send queues a message to peer `to` for delivery next round. It is a
// protocol violation (aborting the run) to send twice to the same peer
// in one round, to exceed the bandwidth cap, or to send to a non-peer.
func (c *Ctx) Send(to int, msg Message) {
	i := c.NeighborIndex(to)
	if i < 0 {
		c.r.fail(fmt.Errorf("%s: node %d sent to non-neighbor %d", c.r.cfg.Model, c.id, to))
		panic(errAborted)
	}
	if c.sentNow[i] {
		c.r.fail(fmt.Errorf("%s: node %d sent twice to %d in round %d", c.r.cfg.Model, c.id, to, c.r.round))
		panic(errAborted)
	}
	if c.outbox[i].size() > 0 {
		c.r.fail(fmt.Errorf("%s: node %d direct Send to %d with queued backlog", c.r.cfg.Model, c.id, to))
		panic(errAborted)
	}
	c.checkWidth(msg)
	c.sentNow[i] = true
	c.noteQueued(i)
	c.outbox[i].push(msg)
}

// SendQueued appends a message to the FIFO for peer `to`; one queued
// message per edge per direction is delivered each round, so bursts are
// pipelined across rounds exactly as congestion forces in the real model.
func (c *Ctx) SendQueued(to int, msg Message) {
	i := c.NeighborIndex(to)
	if i < 0 {
		c.r.fail(fmt.Errorf("%s: node %d queued to non-neighbor %d", c.r.cfg.Model, c.id, to))
		panic(errAborted)
	}
	c.checkWidth(msg)
	c.noteQueued(i)
	c.outbox[i].push(msg)
}

// noteQueued maintains the dirty accounting: called before a push that
// makes the edge queue at index i non-empty, it bumps the sender-shard
// queue counter and flags the receiver as having pending incoming
// traffic. The sender that flips the receiver's rdirty flag false→true
// also appends the receiver to its shard's delivery worklist (the CAS
// makes the append exactly-once per receiver per list), so a round's
// delivery walks only the receivers that actually have traffic instead
// of scanning the whole flag array. All writes are ordered before the
// barrier that delivers them, since the sender reaches its own barrier
// arrival after sending.
func (c *Ctx) noteQueued(i int) {
	if c.outbox[i].size() == 0 {
		c.r.dirty[c.shard].v.Add(1)
		rc := c.r.ctxs[c.nbr[i]]
		if c.r.rdirty[rc.domIdx].CompareAndSwap(false, true) {
			sw := &c.r.work[rc.shard]
			// Concurrent senders (to different receivers of this shard)
			// claim disjoint slots via the cursor; the side index is stable
			// while any sender runs — it flips only during delivery, with
			// every sender parked at the barrier.
			sw.lists[sw.side][sw.count[sw.side].Add(1)-1] = rc.domIdx
		}
		slot := c.srcSlot[i]
		w := &rc.pending[slot>>6]
		bit := uint64(1) << (slot & 63)
		for {
			old := w.Load()
			if old&bit != 0 || w.CompareAndSwap(old, old|bit) {
				return
			}
		}
	}
}

func (c *Ctx) checkWidth(msg Message) {
	if len(msg) > c.r.cfg.MaxWords {
		c.r.fail(fmt.Errorf("%s: node %d message of %d words exceeds cap %d",
			c.r.cfg.Model, c.id, len(msg), c.r.cfg.MaxWords))
		panic(errAborted)
	}
	if len(msg) == 0 {
		c.r.fail(fmt.Errorf("%s: node %d sent empty message", c.r.cfg.Model, c.id))
		panic(errAborted)
	}
}

// ChargeTraffic accounts messages/words the node's protocol computed
// analytically instead of delivering one by one: a node that can prove
// what a fixed-length communication segment would carry (and what every
// participant would conclude from it) may skip the delivery and charge
// the traffic here, keeping the reported Stats bit-identical to the
// message-by-message execution. maxWidth is the widest message the
// skipped segment would have sent, in words; it must respect the
// bandwidth cap exactly as a real Send would. Charges fold into the
// run's Stats wherever delivered traffic does — the end-of-run merge
// and every staged checkpoint cut — so a charging protocol stays
// checkpoint/restore-consistent as long as it charges a segment's
// traffic before the next commit barrier. Rounds are not charged here:
// the node still advances through the segment's rounds (SkipUntil), so
// round accounting needs no substitute.
func (c *Ctx) ChargeTraffic(messages, words int64, maxWidth int) {
	r := c.r
	if messages < 0 || words < 0 {
		r.fail(fmt.Errorf("%s: node %d charged negative traffic (%d messages, %d words)",
			r.cfg.Model, c.id, messages, words))
		panic(errAborted)
	}
	if messages == 0 && words == 0 {
		return
	}
	if maxWidth <= 0 || maxWidth > r.cfg.MaxWords {
		r.fail(fmt.Errorf("%s: node %d charged message width %d outside (0, %d]",
			r.cfg.Model, c.id, maxWidth, r.cfg.MaxWords))
		panic(errAborted)
	}
	r.chargedMsgs.Add(messages)
	r.chargedWords.Add(words)
	for {
		old := r.chargedMaxW.Load()
		if int64(maxWidth) <= old || r.chargedMaxW.CompareAndSwap(old, int64(maxWidth)) {
			return
		}
	}
}

// foldCharged adds the analytically charged traffic into st; called
// exactly where worker stats fold (end of run, staged cuts).
func (r *runner) foldCharged(st *Stats) {
	st.Messages += r.chargedMsgs.Load()
	st.Words += r.chargedWords.Load()
	if w := int(r.chargedMaxW.Load()); w > st.MaxMessageWords {
		st.MaxMessageWords = w
	}
}

// Pending reports whether any queued messages remain undelivered.
func (c *Ctx) Pending() bool {
	for i := range c.outbox {
		if c.outbox[i].size() > 0 {
			return true
		}
	}
	return false
}

// Next ends the node's current round and blocks until all nodes have done
// so; it returns the messages delivered to this node for the new round.
// The returned slice is valid until the following Next call.
func (c *Ctx) Next() []Incoming {
	if !c.r.barrierWait(c) {
		panic(errAborted)
	}
	return c.flipInbox()
}

// SkipUntil ends the node's current round and removes the node from the
// barrier population until the given absolute round number: the rounds in
// between advance on the other nodes' schedule (or fast-forward when
// every node is skipping), without this node being woken per round. It
// returns every message delivered to the node while it slept, in round
// order with ascending senders within a round — exactly what repeated
// Next calls would have concatenated — so a long synchronization spin or
// a wait for a deterministically scheduled message costs one sleep
// instead of target−round barrier participations. Stats are unchanged:
// skipped rounds are counted exactly as if the node had ticked them.
// If target is not beyond the current round, SkipUntil is a no-op
// returning nil (the node stays in its current round).
func (c *Ctx) SkipUntil(target int) []Incoming {
	r := c.r
	if r.sh.aborted.Load() {
		panic(errAborted)
	}
	if target <= r.round {
		return nil
	}
	s := &r.skipShards[c.shard]
	s.mu.Lock()
	g := s.at[target]
	if g == nil {
		g = &skipGroup{ch: make(chan struct{})}
		s.at[target] = g
		r.skipGroups.Add(1)
	}
	g.n++
	s.mu.Unlock()
	r.leaves.Add(1)
	if r.pending.Add(-1) == 0 {
		r.completeRound()
	}
	<-g.ch
	if r.sh.aborted.Load() {
		panic(errAborted)
	}
	return c.flipInbox()
}

// NextDelivery ends the node's current round and removes the node from
// the barrier population until the first round that delivers it a
// message; it returns that round's messages. Rounds in between advance
// on the other nodes' schedule without waking this node, so a wait of
// unknown length for the next protocol event (a flooding wave, a tree
// report) costs one sleep instead of one barrier participation per
// round. Stats are unchanged — the node observes the message in exactly
// the round it would have seen it from a Next loop. If every node of the
// domain is waiting and nothing is queued, no message can ever arrive
// and the run fails with a deadlock error (the analogue of MaxRounds for
// event-driven waits).
func (c *Ctx) NextDelivery() []Incoming {
	r := c.r
	if r.sh.aborted.Load() {
		panic(errAborted)
	}
	c.waiting = true
	c.wakeCh = make(chan struct{})
	r.waiters.Add(1)
	r.leaves.Add(1)
	if r.pending.Add(-1) == 0 {
		r.completeRound()
	}
	<-c.wakeCh
	if r.sh.aborted.Load() {
		panic(errAborted)
	}
	return c.flipInbox()
}

// flipInbox swaps the double buffer and returns the delivered messages,
// shared by Next, SkipUntil, and NextDelivery.
func (c *Ctx) flipInbox() []Incoming {
	in := c.inboxes[c.cur]
	c.cur ^= 1
	c.inboxes[c.cur] = c.inboxes[c.cur][:0]
	return in
}

// padCounter is a cache-line-padded atomic counter: the dirty-edge
// counts are sharded by sender so concurrent senders don't serialize on
// one line.
type padCounter struct {
	v atomic.Int64
	_ [7]uint64
}

// roundTask is one round's delivery coordination: deliver every shard's
// receiver range, then wake each shard by closing old[shard].
type roundTask struct {
	old  []chan struct{} // the round's release channels, one per shard
	done chan struct{}   // closed when every shard finished delivering
}

// shared is the cross-domain state of one run: the abort flag and the
// first error are common to every lockstep domain, so a violation
// anywhere unwinds the whole run.
type shared struct {
	aborted atomic.Bool
	errMu   sync.Mutex
	err     error
}

func (sh *shared) fail(err error) {
	sh.errMu.Lock()
	if sh.err == nil {
		sh.err = err
	}
	sh.errMu.Unlock()
	sh.aborted.Store(true)
}

// runner drives one lockstep domain of a simulation: one connected
// component of the topology. Components exchange no messages, so each
// runs its own barrier, round counter, and delivery pool — a run over a
// disconnected topology is the parallel composition of its components
// (Stats fold as max rounds / summed traffic), and the per-node view
// (round numbering, delivery order) is identical to a single global
// barrier because a node's round count is just its own barrier count.
// Splitting the barrier keeps each component's goroutine set scheduled
// in bursts (cache-resident) and lets components progress independently
// on multicore hosts. The Topology is consumed during setup in
// RunWithDomains; afterwards everything the engine needs lives in the
// Ctxs.
type runner struct {
	nodes []int32 // this domain's endpoints, ascending
	sh    *shared
	cfg   Config
	ctxs  []*Ctx // global ctx table, shared across domains

	// Barrier. pending counts the arrivals outstanding this round; the
	// goroutine whose arrival (or departure) takes it to zero is the
	// round leader and runs completeRound while every other node sleeps,
	// so the leader may touch active/round/stats without locks. Sleepers
	// wait on their shard's release channel; each channel is read before
	// the pending decrement, which orders it before the leader's
	// replacement write.
	pending  atomic.Int64
	leaves   atomic.Int64    // departures since the last barrier
	releases []chan struct{} // one per shard; replaced by the leader each round
	active   int64
	round    int

	stats Stats

	// Sharded delivery. Worker i of the pool owns receivers [Bounds(i))
	// and the matching release shard. shardFns are pre-allocated per-shard
	// closures; cur is the round task they read, written by the leader
	// before dispatch (ordered by the task-channel send).
	pool     *Pool
	wstats   []WorkerStats
	shardFns []func(int)
	cur      roundTask
	left     atomic.Int32

	// dirty[s] counts non-empty edge queues whose sender lives in shard
	// s. When the total is zero at a barrier the whole delivery scan is
	// skipped, so protocol-free synchronization rounds (SpinUntil, pure
	// barriers) cost O(shards) instead of O(m).
	dirty []padCounter

	// rdirty[idx] is set by senders when an incoming edge queue of node
	// nodes[idx] becomes non-empty, and cleared by the delivery worker
	// owning that receiver once all its incoming queues drain. The flag
	// doubles as the exactly-once guard for the per-shard delivery
	// worklists in `work`: the sender whose CAS flips it appends the
	// receiver there, so delivery never scans this array — a round's cost
	// is O(receivers with traffic), not O(domain), which is what lets
	// wave-shaped protocols (BFS converges, flooding fronts) scale to
	// million-node domains.
	rdirty []atomic.Bool

	// work[s] is shard s's delivery worklist: the receivers (domain
	// indexes) owned by shard s that have pending inbound traffic this
	// round. Double-buffered — senders append to lists[side] between
	// barriers, delivery drains it and re-appends backlogged receivers to
	// the other side before flipping, with the flip ordered before any
	// sender wakes by the release-channel chain.
	work []shardWork

	// skipShards groups the nodes sleeping in SkipUntil by wake round,
	// striped by the sleeper's shard so a converge wave registering the
	// whole domain in one round doesn't serialize on a single mutex. The
	// leader readmits groups when it advances into their round (collecting
	// across stripes), and fast-forwards when every remaining node is
	// asleep. skipGroups counts the live groups across all stripes, so the
	// quiet-path checks stay O(1).
	skipShards []skipShard
	skipGroups atomic.Int64
	// wakeScratch is the leader's reusable buffer for the groups waking
	// into the round being entered (leader-only).
	wakeScratch []*skipGroup

	// NextDelivery accounting: waiters counts sleeping message-waiters;
	// wokenByShard collects, per delivery worker, the waiters that shard
	// handed a message this round (disjoint receivers, so no locks). The
	// waker (last delivery worker, or the leader on inline paths) folds
	// them back into the population before anyone is released.
	waiters      atomic.Int64
	wokenByShard [][]*Ctx

	// Analytically charged traffic (Ctx.ChargeTraffic): message/word
	// counts for communication whose outcome a protocol computed in
	// closed form instead of delivering message by message. Folded into
	// stats wherever worker stats are folded (end of run, staged cuts),
	// so charged and delivered traffic are indistinguishable in every
	// reported Stats. Atomics: any awake node may charge, and charges
	// are rare (once per aggregated segment), so contention is nil.
	chargedMsgs  atomic.Int64
	chargedWords atomic.Int64
	chargedMaxW  atomic.Int64

	// Checkpointing (nil/zero when Config.Checkpoint is unset). The
	// staged fields hold the leader-side half of a potential cut,
	// captured at the barrier entering stagedRound (see stageCut); the
	// cut is finalized at the barrier leaving that round if every node
	// committed in it. All leader-only.
	ck           *Checkpointer
	stagedValid  bool
	stagedRound  int
	stagedStats  Stats
	stagedQueues []QueueCut
}

// skipGroup is the set of nodes sleeping until one wake round.
type skipGroup struct {
	n  int64
	ch chan struct{}
}

// skipShard is one stripe of the SkipUntil registry, padded so stripes
// under concurrent registration don't share cache lines.
type skipShard struct {
	mu sync.Mutex
	at map[int]*skipGroup
	_  [4]uint64
}

// shardWork is one shard's double-buffered delivery worklist. Senders
// append receiver indexes to lists[side] through an atomic cursor (the
// rdirty CAS in noteQueued makes each receiver appear at most once);
// the shard's delivery drains the current side, re-appends backlogged
// receivers to the other, and flips. List order is sender-arrival order
// and so scheduler-dependent — harmless, because each receiver's inbox
// is still filled in ascending sender order by the pending-bitmap walk,
// and the leader-side checkpoint staging iterates nodes, not worklists.
type shardWork struct {
	lists [2][]int32
	count [2]atomic.Int32
	side  int
	_     [4]uint64
}

// shardMin keeps tiny topologies on the sequential path: below this many
// nodes per worker the dispatch overhead outweighs the parallelism.
const shardMin = 256

func (r *runner) fail(err error) { r.sh.fail(err) }

// barrierWait blocks until all active nodes arrive; the arrival that
// completes the barrier becomes the leader and advances the round.
// Returns false if the run aborted.
func (r *runner) barrierWait(c *Ctx) bool {
	if r.sh.aborted.Load() {
		return false
	}
	// Read the release channel before decrementing: the leader only
	// replaces r.releases after pending hits zero, i.e. after this read.
	rel := r.releases[c.shard]
	if r.pending.Add(-1) == 0 {
		r.completeRound()
	} else {
		<-rel
	}
	return !r.sh.aborted.Load()
}

// leave removes a finished node from the barrier population. A departure
// counts as this round's arrival, and is deducted from the population at
// the next barrier.
func (r *runner) leave() {
	r.leaves.Add(1)
	if r.pending.Add(-1) == 0 {
		r.completeRound()
	}
}

// completeRound runs once per barrier, by the single goroutine whose
// arrival, departure, or skip registration took pending to zero: apply
// departures, readmit skippers whose wake round arrives, advance the
// round, deliver queued messages across the worker shards, and wake the
// sleepers shard by shard (skip groups last, after delivery finishes).
// When every remaining node is asleep in a skip group, rounds
// fast-forward one by one — still counted, still delivering any queued
// backlog — with nobody woken until the earliest wake round.
func (r *runner) completeRound() {
	// This barrier leaves round r.round with every node parked: if the
	// staged state is for this round and every node committed in it, the
	// two halves form a consistent cut.
	r.tryFinalizeCut()
	r.active -= r.leaves.Swap(0)
	for {
		// Nodes scheduled to wake in the round being entered rejoin the
		// population before that round's barrier forms. Groups for one
		// round may live in several stripes (one per sleeper shard); the
		// leader collects them all, so nothing below depends on striping.
		next := r.round + 1
		wake := r.wakeScratch[:0]
		if r.skipGroups.Load() > 0 {
			for si := range r.skipShards {
				s := &r.skipShards[si]
				s.mu.Lock()
				if g := s.at[next]; g != nil {
					delete(s.at, next)
					wake = append(wake, g)
				}
				s.mu.Unlock()
			}
			if len(wake) > 0 {
				r.skipGroups.Add(-int64(len(wake)))
			}
		}
		r.wakeScratch = wake
		skipsLeft := int(r.skipGroups.Load())
		for _, g := range wake {
			r.active += g.n
		}

		if r.active <= 0 {
			if skipsLeft == 0 && r.waiters.Load() == 0 {
				return // the last node left; nobody is sleeping
			}
			if skipsLeft == 0 && !r.anyQueued() {
				// Only message-waiters remain and nothing is in flight: no
				// message can ever materialize.
				r.fail(fmt.Errorf("%s: every node is waiting for a message and none are queued (protocol deadlock)", r.cfg.Model))
				r.wakeAllSleepers()
				return
			}
			if skipsLeft > 0 && !r.anyQueued() {
				// Nothing can be delivered until a skipper wakes, so jump
				// straight to the round before the earliest wake (counting
				// the skipped rounds) instead of ticking them one by one.
				minWake := 0
				for si := range r.skipShards {
					s := &r.skipShards[si]
					s.mu.Lock()
					//sbw:orderinvariant min-reduction over the wake rounds; the minimum is order-independent
					for round := range s.at {
						if minWake == 0 || round < minWake {
							minWake = round
						}
					}
					s.mu.Unlock()
				}
				if delta := minWake - 1 - r.round; delta > 0 {
					if !r.advanceRounds(delta) {
						r.wakeAllSleepers()
						return
					}
				}
				continue
			}
			// Everyone left or sleeps past `next`: advance the round with
			// nobody to wake and retry at the following one.
			if !r.advanceRounds(1) {
				r.wakeAllSleepers()
				return
			}
			if r.anyQueued() {
				r.deliverAll()
				if woken := r.collectWoken(); len(woken) > 0 {
					// Delivery woke message-waiters: form the new round's
					// population from them and hand control back. Stage the
					// cut before anyone wakes (pure fast-forward rounds with
					// nobody woken skip staging: no node executes in them, so
					// no commit can reference them).
					r.active += int64(len(woken))
					r.pending.Store(r.active)
					if r.ck != nil {
						r.stageCut()
					}
					wakeNodes(woken)
					return
				}
			}
			continue
		}

		nshards := r.pool.Shards()
		old := r.releases
		fresh := make([]chan struct{}, nshards)
		for i := range fresh {
			fresh[i] = make(chan struct{})
		}
		r.releases = fresh
		r.pending.Store(r.active)

		if !r.advanceRounds(1) {
			for _, ch := range old {
				close(ch)
			}
			closeGroups(wake)
			r.wakeAllSleepers()
			return
		}
		if !r.anyQueued() {
			// Nothing anywhere in flight: skip the delivery scan entirely.
			if r.ck != nil {
				r.stageCut()
			}
			for _, ch := range old {
				close(ch)
			}
			closeGroups(wake)
			return
		}
		if nshards == 1 || r.ck != nil {
			// Inline delivery: the single-shard fast path, and — forced —
			// every round of a checkpointing run, so the leader can stage
			// the post-delivery queue state before anyone wakes. With
			// nshards > 1 forced inline, every shard's release channel
			// still must close.
			r.deliverAll()
			woken := r.collectWoken()
			if len(woken) > 0 {
				r.active += int64(len(woken))
				r.pending.Add(int64(len(woken)))
			}
			if r.ck != nil {
				r.stageCut()
			}
			// All accounting done: wake waiters, then sleepers. Nothing
			// shared is mutated after the first close.
			wakeNodes(woken)
			for _, ch := range old {
				close(ch)
			}
			closeGroups(wake)
			return
		}
		r.left.Store(int32(nshards))
		r.cur = roundTask{old: old, done: make(chan struct{})}
		t := r.cur
		for wid := 0; wid < nshards; wid++ {
			r.pool.Submit(wid, r.shardFns[wid])
		}
		// The leader is a node too: it may not run ahead into the next round
		// until its own inbox is complete. Shard wake-ups proceed in the
		// background; skippers wake only after every shard delivered, and
		// the leader mutates nothing past this point (the next round's
		// leader may already be running).
		<-t.done
		closeGroups(wake)
		return
	}
}

// closeGroups releases the skip groups waking into the round just
// entered.
func closeGroups(wake []*skipGroup) {
	for _, g := range wake {
		close(g.ch)
	}
}

// advanceRounds moves the domain forward by delta rounds, counting them
// against Stats and the MaxRounds cap. It returns false when the run is
// (or becomes) aborted — the caller must wake its sleepers and bail.
func (r *runner) advanceRounds(delta int) bool {
	r.round += delta
	r.stats.Rounds += delta
	if !r.sh.aborted.Load() && r.stats.Rounds > r.cfg.MaxRounds {
		r.fail(fmt.Errorf("%s: exceeded MaxRounds=%d", r.cfg.Model, r.cfg.MaxRounds))
	}
	return !r.sh.aborted.Load()
}

// anyQueued reports whether any edge queue holds an undelivered message.
func (r *runner) anyQueued() bool {
	queued := int64(0)
	for i := range r.dirty {
		queued += r.dirty[i].v.Load()
	}
	return queued != 0
}

// collectWoken detaches this round's woken message-waiters from the
// collection lists — detaching (not truncating) so the next round's
// delivery can refill the slots without sharing a backing array with
// this round's wake — clears their waiting flags, and updates the
// waiters counter. The caller must give them pending slots before
// releasing them with wakeNodes; once a wakeCh closes, the woken node
// may immediately become the next round's leader.
func (r *runner) collectWoken() []*Ctx {
	var woken []*Ctx
	for s := range r.wokenByShard {
		if len(r.wokenByShard[s]) > 0 {
			woken = append(woken, r.wokenByShard[s]...)
			r.wokenByShard[s] = nil
		}
	}
	for _, c := range woken {
		c.waiting = false
	}
	if len(woken) > 0 {
		r.waiters.Add(-int64(len(woken)))
	}
	return woken
}

// wakeNodes releases nodes collected by collectWoken.
func wakeNodes(ws []*Ctx) {
	for _, c := range ws {
		close(c.wakeCh)
	}
}

// wakeAllSleepers releases every skip group and message-waiter (abort
// and deadlock paths); the woken nodes observe the aborted flag and
// unwind.
func (r *runner) wakeAllSleepers() {
	for si := range r.skipShards {
		s := &r.skipShards[si]
		s.mu.Lock()
		//sbw:orderinvariant abort/deadlock teardown; every group is closed and the run reports failure regardless of wake order
		for round, g := range s.at {
			delete(s.at, round)
			close(g.ch)
		}
		s.mu.Unlock()
	}
	r.skipGroups.Store(0)
	for _, v := range r.nodes {
		c := r.ctxs[v]
		if c.waiting {
			c.waiting = false
			close(c.wakeCh)
		}
	}
	r.waiters.Store(0)
}

// runShard is one worker's share of a round: deliver its receiver range,
// then wake its release shard once every shard has delivered. The task
// read from r.cur is ordered after the leader's write by the pool's
// task-channel send.
func (r *runner) runShard(wid int) {
	t := r.cur
	r.deliverWork(wid)
	if r.left.Add(-1) == 0 {
		// Last shard standing: every shard has delivered. Admit the
		// message-waiters this round woke — population count, pending
		// slot, wake, and list detach — entirely before t.done: a woken
		// node may immediately arrive at the next barrier and become its
		// leader, so no shared state may be mutated after t.done.
		woken := r.collectWoken()
		if len(woken) > 0 {
			r.active += int64(len(woken))
			r.pending.Add(int64(len(woken)))
		}
		wakeNodes(woken)
		close(t.done)
	} else {
		// Wake-up must wait for *all* shards: a woken node may send
		// immediately, racing a slower worker still reading its outbox.
		<-t.done
	}
	close(t.old[wid])
}

// deliverWork moves one queued message per directed edge into the
// inboxes of shard wid's dirty receivers: it drains the shard's current
// worklist side instead of scanning a receiver range, so a round's cost
// is proportional to the receivers that actually have traffic — a BFS
// wave over a million-node domain touches the wavefront, not the domain.
// Each receiver walks its incident edges in sorted sender order (the
// pending-bitmap walk) — the exact delivery order of the sequential
// engine, so results do not depend on the worker count or on the
// worklist's sender-arrival order. Receivers with remaining backlog are
// re-appended to the other worklist side for the next round; the flip
// happens with every sender parked at the barrier and is ordered before
// any release-channel close. A sender's outbox slot and sentNow flag for
// an edge are touched only by the worker owning the receiving endpoint,
// so delivery needs no locks.
//
//sbw:allocfree engine delivery inner loop: one call per receiver shard per round
func (r *runner) deliverWork(wid int) {
	ws := &r.wstats[wid]
	sw := &r.work[wid]
	side := sw.side
	list := sw.lists[side][:sw.count[side].Load()]
	next := side ^ 1
	nlist := sw.lists[next]
	carried := int32(0)
	for _, idx := range list {
		c := r.ctxs[r.nodes[idx]]
		backlog := false
		delivered := false
		buf := c.inboxes[c.cur]
		for wi := range c.pending {
			word := c.pending[wi].Load()
			if word == 0 {
				continue
			}
			keep := uint64(0)
			for rest := word; rest != 0; rest &= rest - 1 {
				bit := bits.TrailingZeros64(rest)
				i := wi<<6 + bit
				w := c.nbr[i]
				sc := r.ctxs[w]
				slot := c.srcSlot[i]
				q := &sc.outbox[slot]
				msg := q.pop()
				if q.size() == 0 {
					r.dirty[sc.shard].v.Add(-1)
				} else {
					keep |= uint64(1) << bit
					backlog = true
				}
				sc.sentNow[slot] = false
				buf = append(buf, Incoming{From: int(w), Payload: msg}) //sbw:allocok amortized: inboxes are double-buffered and recycled across rounds; steady-state capacity never grows
				delivered = true
				ws.Note(len(msg))
			}
			c.pending[wi].Store(keep)
		}
		c.inboxes[c.cur] = buf
		if backlog {
			// Still dirty: carry the receiver into the next round's list
			// (its rdirty flag stays set, so senders won't re-append it).
			nlist[carried] = idx
			carried++
		} else {
			r.rdirty[idx].Store(false)
		}
		if delivered && c.waiting {
			r.wokenByShard[wid] = append(r.wokenByShard[wid], c) //sbw:allocok amortized: per-shard woken list is reset, not reallocated, each round
		}
	}
	sw.count[next].Store(carried)
	sw.count[side].Store(0)
	sw.side = next
}

// deliverAll runs every shard's delivery inline on the round leader: the
// single-shard fast path, the fast-forward path, and every round of a
// checkpointing run (so the leader can stage the post-delivery state
// before anyone wakes). Shards are processed in ascending order, which
// together with the per-receiver ascending-sender walk makes the inline
// path's observable effects identical to the pooled one.
func (r *runner) deliverAll() {
	for wid := range r.work {
		r.deliverWork(wid)
	}
}

// DomainStats is one lockstep domain's (connected component's) share of
// a run: the component's smallest endpoint ID and the Stats measured for
// that component alone (its own rounds, its own traffic).
type DomainStats struct {
	Root  int
	Stats Stats
}

// RunWithDomains executes program on every endpoint of top until all
// node programs return. It returns the measured statistics and the
// per-domain statistics (one entry per connected component, ordered by
// smallest member), or an error if any node violated the model,
// panicked, or the round cap was hit. Callers that simulate each distinct component once and
// replicate the result — the components of a run are independent and
// the simulation deterministic — use the per-domain breakdown to scale
// traffic exactly.
func RunWithDomains(top Topology, cfg Config, program func(ctx *Ctx)) (*Stats, []DomainStats, error) {
	cfg = cfg.withDefaults()
	if cfg.Workers < 0 || cfg.Workers > MaxWorkers {
		return nil, nil, fmt.Errorf("%s: Workers=%d is not a usable worker count (want 0 for GOMAXPROCS, or 1..%d)",
			cfg.Model, cfg.Workers, MaxWorkers)
	}
	n := top.N()
	if n == 0 {
		return &Stats{}, nil, nil
	}
	// CSR fast path: a flat topology hands over its offset table and arc
	// arena once; degree sums read the offset table directly and the
	// neighbor lookups slice the arena without going back through the
	// interface. Other topologies go through Neighbors at identical
	// behavior.
	neighborsOf := top.Neighbors
	degreeOf := func(v int) int32 { return int32(len(top.Neighbors(v))) }
	if at, ok := top.(ArcTopology); ok {
		csrOff, csrNbr := at.CSR()
		neighborsOf = func(v int) []int32 { return csrNbr[csrOff[v]:csrOff[v+1]] }
		degreeOf = func(v int) int32 { return csrOff[v+1] - csrOff[v] }
	}
	sh := &shared{}
	ctxs := make([]*Ctx, n)

	// One lockstep domain per connected component of the topology: the
	// components exchange no messages, so each runs its own barrier and
	// pool and their Stats fold as parallel composition (max rounds,
	// summed traffic). Per-node behavior is unchanged — a node's round
	// counter is its own barrier count either way.
	//
	// Domains are causally independent, so the engine bounds how many run
	// at once to GOMAXPROCS: on a single-processor host the components of
	// a disconnected run execute back to back with their goroutine sets
	// cache-resident, and on a multiprocessor host they fill the
	// processors. Node programs may only interact through edges (the
	// model's contract), so delaying a domain's start is unobservable.
	// A domain's contexts and pool materialize when it is scheduled and
	// are released when it completes, keeping the live footprint at the
	// in-flight domains rather than the whole run.
	comps := components(n, neighborsOf)
	// Resume validation happens up front, against the actual component
	// structure, so a corrupt or mismatched snapshot is an error before
	// any node program runs.
	var resumeByRoot map[int32]*DomainCut
	if cfg.Resume != nil {
		compByRoot := make(map[int32]int, len(comps))
		for ci, comp := range comps {
			compByRoot[comp[0]] = ci
		}
		resumeByRoot = make(map[int32]*DomainCut, len(cfg.Resume.Cuts))
		for i := range cfg.Resume.Cuts {
			cut := &cfg.Resume.Cuts[i]
			ci, ok := compByRoot[cut.Root]
			if !ok {
				return nil, nil, fmt.Errorf("%s: resume: snapshot domain %d is not a component root of this topology", cfg.Model, cut.Root)
			}
			if _, dup := resumeByRoot[cut.Root]; dup {
				return nil, nil, fmt.Errorf("%s: resume: snapshot has two cuts for domain %d", cfg.Model, cut.Root)
			}
			if err := validateCut(cut, comps[ci], degreeOf, cfg); err != nil {
				return nil, nil, err
			}
			resumeByRoot[cut.Root] = cut
		}
	}
	runners := make([]*runner, len(comps))
	undelivered := make([]int, len(comps))
	slots := cfg.Workers
	if slots == 0 {
		slots = runtime.GOMAXPROCS(0)
	}
	if slots < 1 {
		slots = 1
	}
	sem := make(chan struct{}, slots)
	var domains sync.WaitGroup
	domains.Add(len(comps))
	for ci := range comps {
		ci := ci
		comp := comps[ci]
		undelivered[ci] = -1
		go func() {
			defer domains.Done()
			sem <- struct{}{}
			defer func() { <-sem }()

			// A resumed domain's barrier population is only its unfinished
			// nodes; a fully finished domain (final cut) spawns nothing.
			cut := resumeByRoot[comp[0]]
			live := len(comp)
			if cut != nil {
				live = liveNodes(cut)
			}
			r := &runner{
				nodes:  comp,
				sh:     sh,
				cfg:    cfg,
				ctxs:   ctxs,
				pool:   NewPoolSized(len(comp), shardMin, cfg.Workers),
				active: int64(live),
				ck:     cfg.Checkpoint,
			}
			runners[ci] = r
			nshards := r.pool.Shards()
			r.pending.Store(int64(live))
			r.releases = make([]chan struct{}, nshards)
			for i := range r.releases {
				r.releases[i] = make(chan struct{})
			}
			r.wstats = make([]WorkerStats, nshards)
			r.dirty = make([]padCounter, nshards)
			r.rdirty = make([]atomic.Bool, len(comp))
			r.skipShards = make([]skipShard, nshards)
			for i := range r.skipShards {
				r.skipShards[i].at = make(map[int]*skipGroup)
			}
			// Each shard's worklist sides are sized to the shard: the
			// rdirty CAS admits every owned receiver at most once per side.
			r.work = make([]shardWork, nshards)
			for i := range r.work {
				lo, hi := r.pool.Bounds(i)
				r.work[i].lists[0] = make([]int32, hi-lo)
				r.work[i].lists[1] = make([]int32, hi-lo)
			}
			r.wokenByShard = make([][]*Ctx, nshards)
			r.shardFns = make([]func(int), nshards)
			for i := 0; i < nshards; i++ {
				wid := i
				r.shardFns[i] = func(int) { r.runShard(wid) }
			}
			// Per-edge state is carved out of per-domain arenas indexed by
			// the domain-local edge ID (the prefix-sum position of arc
			// (v, i) over the domain's endpoints): one allocation per kind
			// of state instead of one per node, contiguous in delivery
			// order. The pending bitmaps get their own word offsets — each
			// endpoint needs exclusively owned words for the senders' CAS.
			domOff := make([]int32, len(comp)+1)
			pwOff := make([]int32, len(comp)+1)
			for idx, v := range comp {
				deg := degreeOf(int(v))
				domOff[idx+1] = domOff[idx] + deg
				pwOff[idx+1] = pwOff[idx] + (deg+63)/64
			}
			arcs := int(domOff[len(comp)])
			ctxArena := make([]Ctx, len(comp))
			srcSlotArena := make([]int32, arcs)
			outboxArena := make([]fifo, arcs)
			sentNowArena := make([]bool, arcs)
			pendingArena := make([]atomic.Uint64, pwOff[len(comp)])
			inboxArena := make([]Incoming, 2*arcs)
			for idx, v := range comp {
				// Widen before the inbox-carve arithmetic: 2*lo would wrap
				// int32 from 2^30 domain arcs on.
				lo, hi := int(domOff[idx]), int(domOff[idx+1])
				c := &ctxArena[idx]
				c.r = r
				c.id = int(v)
				c.domIdx = int32(idx)
				c.shard = r.pool.ShardOf(idx)
				c.nbr = neighborsOf(int(v))
				c.srcSlot = srcSlotArena[lo:hi:hi]
				c.outbox = outboxArena[lo:hi:hi]
				c.sentNow = sentNowArena[lo:hi:hi]
				c.pending = pendingArena[pwOff[idx]:pwOff[idx+1]:pwOff[idx+1]]
				// The two inbox halves start with capacity deg each; a
				// SkipUntil that accumulates more re-slices off-arena via
				// append, which is safe (the carve caps at the region end).
				c.inboxes[0] = inboxArena[2*lo : 2*lo : lo+hi]
				c.inboxes[1] = inboxArena[lo+hi : lo+hi : 2*hi]
				ctxs[v] = c
			}
			// srcSlot[i] is this node's index in peer nbr[i]'s sorted
			// adjacency. Sweeping the domain's endpoints in ascending order
			// visits each peer's inbound arcs in exactly its adjacency
			// order, so a per-endpoint cursor yields every slot in one
			// O(arcs) pass — no per-arc binary search.
			cursor := make([]int32, len(comp))
			for _, v := range comp {
				c := ctxs[v]
				for i, w := range c.nbr {
					rd := ctxs[w].domIdx
					c.srcSlot[i] = cursor[rd]
					cursor[rd]++
				}
			}
			if cut != nil {
				r.restoreCut(cut)
			}
			// Seed the staged cut with the domain's start state (round 0,
			// or the restored cut), so commits in the very first executed
			// round finalize against a matching stage.
			if r.ck != nil {
				r.stageCut()
			}

			var nodes sync.WaitGroup
			nodes.Add(live)
			for _, v := range comp {
				ctx := ctxs[v]
				if ctx.commitDone {
					continue // finished in the resumed cut; never respawned
				}
				go func() {
					defer nodes.Done()
					defer ctx.r.leave()
					defer func() {
						if p := recover(); p != nil && !errors.Is(asErr(p), errAborted) {
							sh.fail(fmt.Errorf("%s: node %d panicked: %v", cfg.Model, ctx.id, p))
						}
					}()
					program(ctx)
				}()
			}
			nodes.Wait()
			r.pool.Close()
			r.stats.MergeWorkers(r.wstats)
			r.foldCharged(&r.stats)
			// The domain-end cut: recorded once every node finished through
			// CommitFinal, with the domain's true final Stats (the rounds
			// in which the last nodes finished never finalize as live cuts).
			if r.ck != nil && !sh.aborted.Load() {
				r.finalCut()
			}
			// Messages queued by nodes that exited early are still delivered
			// at later barriers; only messages left after the last node
			// exits were truly dropped, which indicates a protocol bug.
			for _, v := range comp {
				if ctxs[v].Pending() {
					undelivered[ci] = int(v)
					break
				}
			}
			for _, v := range comp {
				ctxs[v] = nil // release the domain's state
			}
		}()
	}
	domains.Wait()
	var st Stats
	perDomain := make([]DomainStats, len(runners))
	for ci, r := range runners {
		perDomain[ci] = DomainStats{Root: int(comps[ci][0]), Stats: r.stats}
		if r.stats.Rounds > st.Rounds {
			st.Rounds = r.stats.Rounds
		}
		st.Messages += r.stats.Messages
		st.Words += r.stats.Words
		if r.stats.MaxMessageWords > st.MaxMessageWords {
			st.MaxMessageWords = r.stats.MaxMessageWords
		}
	}
	if sh.err == nil {
		for _, v := range undelivered {
			if v >= 0 {
				sh.err = fmt.Errorf("%s: node %d finished with undelivered queued messages", cfg.Model, v)
				break
			}
		}
	}
	return &st, perDomain, sh.err
}

// components returns the connected components over the given adjacency
// accessor, each ascending, ordered by smallest member.
func components(n int, neighborsOf func(int) []int32) [][]int32 {
	seen := make([]bool, n)
	var comps [][]int32
	for s := 0; s < n; s++ {
		if seen[s] {
			continue
		}
		seen[s] = true
		members := []int32{int32(s)}
		for qi := 0; qi < len(members); qi++ {
			for _, w := range neighborsOf(int(members[qi])) {
				if !seen[w] {
					seen[w] = true
					members = append(members, w)
				}
			}
		}
		slices.Sort(members)
		comps = append(comps, members)
	}
	return comps
}

func asErr(p any) error {
	if err, ok := p.(error); ok {
		return err
	}
	return nil
}
