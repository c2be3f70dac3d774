// Package engine is the shared sharded round engine under all three
// model simulators of this repository (CONGEST, CONGESTED CLIQUE, MPC).
// It owns one copy of the parallel hot path:
//
//   - node programs that run as coroutines of their domain's goroutine,
//     the only scheduler of its nodes: a round call (Next, SkipUntil)
//     parks the node with the round it wants back, and
//     between two rounds, with every node parked, the domain goroutine
//     delivers and collects the next round's awake nodes from per-shard
//     calendars — no barrier, channel or lock on the scheduling path;
//   - message delivery sharded by *receiver* across a pool of
//     GOMAXPROCS workers with per-worker stats, merged once the workers
//     are quiescent (sums and max, so totals are order-independent);
//     a round with enough awake nodes resumes them through the same
//     pool, each worker running its own shard's nodes;
//   - one reused inbox per node and head-indexed outbox FIFOs that
//     recycle their backing arrays, so steady-state rounds allocate
//     nothing per edge;
//   - a sharded dirty-edge counter that skips the delivery scan entirely
//     on quiet rounds, plus per-receiver dirty flags that keep a busy
//     round's scan proportional to actual traffic instead of the edge
//     set;
//   - a sleep primitive that takes idle nodes off the round's resume
//     list: SkipUntil sleeps to a known round (a scheduled
//     resynchronization, a deterministically scheduled message), with
//     skipped rounds advancing — and counted — on the other nodes'
//     schedule or fast-forwarded when everyone sleeps;
//   - one independent lockstep domain per connected component of the
//     topology: components exchange no messages, so each runs its own
//     round loop and pool (bounded to GOMAXPROCS domains in flight), and
//     a run over a disconnected topology is the parallel composition of
//     its components — max rounds, summed traffic.
//
// Receiver-sharding keeps everything deterministic: each inbox is filled
// by exactly one worker, in ascending sender order — the exact delivery
// order of a sequential scan — so Stats and protocol behavior are
// bit-for-bit independent of the worker count, and a sleeping node
// wakes in exactly the round a Next loop would have acted.
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
	// Workers bounds the delivery/compute parallelism of the run: the
	// worker count of each domain's shard pool and the number of lockstep
	// domains in flight. Zero inherits GOMAXPROCS (the historical
	// behavior); negative values or values beyond MaxWorkers are rejected
	// with a diagnostic before any node program starts. The worker count
	// never changes results — receiver-sharded delivery keeps Stats and
	// protocol behavior bit-identical at any setting (the
	// *DeterministicAcrossShards suites pin this).
	Workers int
	// Checkpoint, when non-nil, collects consistent per-domain cuts
	// between the rounds in which every node committed its state (see
	// Ctx.Commit).
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

// model prefixes every error a run reports. The CONGEST simulator is
// the only client that runs node programs; the clique and MPC
// simulators use the Pool and Scatter alone.
const model = "congest"

func (c Config) withDefaults() Config {
	if c.MaxWords == 0 {
		c.MaxWords = 4
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 1 << 22
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

// errAborted unwinds node programs when any node fails or the run stops.
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
// only from the node's own program. The program runs as a coroutine of
// its domain's goroutine and may wait on another node's progress only
// through the round calls Next and SkipUntil: any other
// wait (a channel, a lock held across a round call, a spin on shared
// state) can never be released, because the node it waits for runs only
// while this one is parked.
//
// Each coroutine starts on the runtime's 2 KB goroutine stack, and a
// program that outgrows it has its stack doubled for as long as it
// stays parked deep: with every node of a run parked at the same place,
// one deep step doubles every node's stack. On linux/amd64, 1,120 B lie
// above the runtime's stack guard, and the coroutine frames around a
// parked program (runtime.corostart, iter.Pull's body and yield,
// coroswitch, start's body and park) take 416 B of them. So the program
// frames live at any park must stay under about 700 B, with room on top
// for what runs between two round calls; an allocation's runtime path
// alone takes about 150 B, and 400 B and more when it refills a span.
// The rule for node programs: keep the frames that stay live across
// round calls to control flow, do the work between two round calls in
// helpers that return before the next park, allocate at the start of
// the program rather than deep in it, and keep diagnostics (fmt calls)
// out of line. The send paths follow it: their faults are out of line,
// and every outbox queue starts with one slot of its own, so a first
// send grows no slice.
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

	// inbox collects the messages delivered while the node is parked.
	// The round call that resumes the node returns it and starts the next
	// collection in the same buffer, which is why a round call's slice is
	// valid only until the node's next round call.
	inbox []Incoming

	// domIdx is this node's position in its runner's nodes slice; it
	// indexes the runner's receiver-dirty array.
	domIdx int32

	// pending is a bitmap over this node's neighbor indexes: bit i set
	// means neighbor nbr[i]'s queue toward this node is non-empty.
	// Senders set bits (CAS — concurrent senders share words) when an
	// edge queue activates; the delivery worker owning this receiver
	// walks only the set bits instead of probing every inbound queue,
	// and rewrites each word plainly (delivery runs with every node
	// parked).
	pending []atomic.Uint64

	// The node's coroutine (see start): resume and stop are called by
	// the goroutine scheduling the node's shard, yield by the program's
	// round calls. wake is the round the parked node wants back.
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool
	wake   int

	// Checkpoint state. commitBlob/commitRound/commitValid hold the last
	// Ctx.Commit of this node (written by the node's program, read by
	// the domain goroutine between rounds, ordered by the coroutine
	// switch). commitDone marks a CommitFinal.
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
	if i < 0 || c.sentNow[i] || c.outbox[i].size() > 0 {
		c.sendFault(to, i)
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
		c.queueFault(to)
	}
	c.checkWidth(msg)
	c.noteQueued(i)
	c.outbox[i].push(msg)
}

// The faults of the send paths fail the run and unwind the program.
// Each is kept out of line, as are the node programs' own diagnostics,
// so that its formatting frame is not part of every send's frame: a
// node program must fit the 2 KB stack its coroutine starts with (see
// Ctx).

// sendFault reports the violation of a direct Send to `to`, whose
// neighbor index is i.
//
//go:noinline
func (c *Ctx) sendFault(to, i int) {
	switch {
	case i < 0:
		c.r.fail(fmt.Errorf("%s: node %d sent to non-neighbor %d", model, c.id, to))
	case c.sentNow[i]:
		c.r.fail(fmt.Errorf("%s: node %d sent twice to %d in round %d", model, c.id, to, c.r.round))
	default:
		c.r.fail(fmt.Errorf("%s: node %d direct Send to %d with queued backlog", model, c.id, to))
	}
	panic(errAborted)
}

// queueFault reports a SendQueued to the non-neighbor `to`.
//
//go:noinline
func (c *Ctx) queueFault(to int) {
	c.r.fail(fmt.Errorf("%s: node %d queued to non-neighbor %d", model, c.id, to))
	panic(errAborted)
}

// noteQueued maintains the dirty accounting: called before a push that
// makes the edge queue at index i non-empty, it bumps the sender-shard
// queue counter and flags the receiver as having pending incoming
// traffic. The sender that flips the receiver's rdirty flag false→true
// also appends the receiver to its shard's delivery worklist (the CAS
// makes the append exactly-once per receiver), so a round's delivery
// walks only the receivers that actually have traffic instead of
// scanning the whole flag array. Nodes of different shards may run at
// once, hence the atomics; all writes are ordered before the delivery
// that reads them by the sender's park.
func (c *Ctx) noteQueued(i int) {
	if c.outbox[i].size() == 0 {
		c.r.dirty[c.shard].v.Add(1)
		rc := c.r.ctxs[c.nbr[i]]
		if c.r.rdirty[rc.domIdx].CompareAndSwap(false, true) {
			// Concurrent senders (to different receivers of this shard)
			// claim disjoint slots via the cursor.
			sw := &c.r.work[rc.shard]
			sw.list[sw.count.Add(1)-1] = rc.domIdx
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
	if len(msg) > c.r.cfg.MaxWords || len(msg) == 0 {
		c.widthFault(len(msg))
	}
}

// widthFault reports a message of n words, empty or wider than the cap.
//
//go:noinline
func (c *Ctx) widthFault(n int) {
	if n > c.r.cfg.MaxWords {
		c.r.fail(fmt.Errorf("%s: node %d message of %d words exceeds cap %d",
			model, c.id, n, c.r.cfg.MaxWords))
	} else {
		c.r.fail(fmt.Errorf("%s: node %d sent empty message", model, c.id))
	}
	panic(errAborted)
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
// traffic before the next commit round. Rounds are not charged here:
// the node still advances through the segment's rounds (SkipUntil), so
// round accounting needs no substitute.
func (c *Ctx) ChargeTraffic(messages, words int64, maxWidth int) {
	r := c.r
	if messages < 0 || words < 0 {
		r.fail(fmt.Errorf("%s: node %d charged negative traffic (%d messages, %d words)",
			model, c.id, messages, words))
		panic(errAborted)
	}
	if messages == 0 && words == 0 {
		return
	}
	if maxWidth <= 0 || maxWidth > r.cfg.MaxWords {
		r.fail(fmt.Errorf("%s: node %d charged message width %d outside (0, %d]",
			model, c.id, maxWidth, r.cfg.MaxWords))
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

// Next ends the node's current round and parks it until the next one;
// it returns the messages delivered to this node for the new round. The
// returned slice is valid until the node's next round call (Next or
// SkipUntil), which reuses its buffer.
func (c *Ctx) Next() []Incoming {
	return c.park(c.r.round + 1)
}

// SkipUntil ends the node's current round and parks it until the given
// absolute round number: the rounds in between advance on the other
// nodes' schedule (or fast-forward when every node is asleep), without
// this node being resumed per round. It returns every message delivered
// to the node while it slept, in round order with ascending senders
// within a round — exactly what repeated Next calls would have
// concatenated — so a long synchronization spin or a wait for a
// deterministically scheduled message costs one sleep instead of
// target−round resumptions. Stats are unchanged: skipped rounds are
// counted exactly as if the node had ticked them. If target is not
// beyond the current round, SkipUntil is a no-op returning nil (the
// node stays in its current round). The returned slice is valid until
// the node's next round call.
func (c *Ctx) SkipUntil(target int) []Incoming {
	if target <= c.r.round {
		return nil
	}
	return c.park(target)
}

// park records the round the node wants back and yields to the
// goroutine scheduling its shard, which resumes the node in that round.
// A false yield (the run stopped the coroutine) or an aborted run
// unwinds the program with errAborted. On resumption it returns the
// messages delivered while the node was parked.
func (c *Ctx) park(wake int) []Incoming {
	c.wake = wake
	if !c.yield(struct{}{}) || c.r.sh.aborted.Load() {
		panic(errAborted)
	}
	in := c.inbox
	c.inbox = in[:0]
	return in
}

// start makes program the node's coroutine. The body recovers the
// program's panics: errAborted is the unwinding of an aborted or stopped
// run, anything else fails the run. Either way the body returns
// normally, so neither resume nor stop re-panics on the scheduling side.
func (c *Ctx) start(program func(*Ctx)) {
	c.resume, c.stop = coroutine(func(yield func(struct{}) bool) {
		c.yield = yield
		defer func() {
			if p := recover(); p != nil && !errors.Is(asErr(p), errAborted) {
				c.r.fail(fmt.Errorf("%s: node %d panicked: %v", model, c.id, p))
			}
		}()
		program(c)
	})
}

// padCounter is a cache-line-padded atomic counter: the dirty-edge
// counts are sharded by sender so concurrent senders don't serialize on
// one line.
type padCounter struct {
	v atomic.Int64
	_ [7]uint64
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
// runs its own round loop, round counter, and delivery pool — a run over
// a disconnected topology is the parallel composition of its components
// (Stats fold as max rounds / summed traffic), and the per-node view
// (round numbering, delivery order) is identical to one global round
// loop because a node's round count is just the domain's. The Topology
// is consumed during setup in RunWithDomains; afterwards everything the
// engine needs lives in the Ctxs.
type runner struct {
	nodes []int32 // this domain's endpoints, ascending
	sh    *shared
	cfg   Config
	ctxs  []*Ctx // global ctx table, shared across domains

	round int
	stats Stats

	// sched[s] is shard s's node schedule; every node of the domain is
	// in exactly one of its lists (or finished) whenever no node runs.
	sched []shardSched

	// Sharded delivery. Worker i of the pool owns receivers [Bounds(i))
	// and resumes shard i's nodes.
	pool   *Pool
	wstats []WorkerStats

	// dirty[s] counts non-empty edge queues whose sender lives in shard
	// s. When the total is zero between rounds the whole delivery scan
	// is skipped, so protocol-free synchronization rounds (SpinUntil,
	// empty Next loops) cost O(shards) instead of O(m).
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

	// work[s] is shard s's delivery worklist.
	work []shardWork

	// Analytically charged traffic (Ctx.ChargeTraffic): message/word
	// counts for communication whose outcome a protocol computed in
	// closed form instead of delivering message by message. Folded into
	// stats wherever worker stats are folded (end of run, staged cuts),
	// so charged and delivered traffic are indistinguishable in every
	// reported Stats. Atomics: nodes of different shards may charge at
	// once, and charges are rare (once per aggregated segment), so
	// contention is nil.
	chargedMsgs  atomic.Int64
	chargedWords atomic.Int64
	chargedMaxW  atomic.Int64

	// Checkpointing (nil/zero when Config.Checkpoint is unset). The
	// staged fields hold the engine's half of a potential cut, captured
	// on entering stagedRound (see stageCut); the cut is finalized on
	// leaving that round if every node committed in it. Domain goroutine
	// only.
	ck           *Checkpointer
	stagedValid  bool
	stagedRound  int
	stagedStats  Stats
	stagedQueues []QueueCut
}

// shardSched is one shard's node schedule. Only the goroutine that
// resumes or delivers for the shard writes it — the shard's pool worker
// inside a pass, the domain goroutine otherwise — and only while the
// nodes it lists are parked. Padded so shards resumed at once don't
// share cache lines.
type shardSched struct {
	awake []*Ctx         // to resume in the current round
	next  []*Ctx         // parked in Next: due in the following round
	cal   map[int][]*Ctx // parked in SkipUntil, by wake round
	live  int            // unfinished nodes
	_     [8]uint64
}

// shardWork is one shard's delivery worklist: the receivers (domain
// indexes) owned by the shard with pending inbound traffic. Senders
// append through an atomic cursor (the rdirty CAS in noteQueued makes
// each receiver appear at most once); the shard's delivery drains the
// list and keeps the receivers with remaining backlog at its front.
// List order is sender-arrival order and so scheduler-dependent —
// harmless, because each receiver's inbox is still filled in ascending
// sender order by the pending-bitmap walk, and the checkpoint staging
// iterates nodes, not worklists.
type shardWork struct {
	list  []int32
	count atomic.Int32
	_     [4]uint64
}

// shardMin keeps tiny topologies on the sequential path: below this many
// nodes per worker the dispatch overhead outweighs the parallelism. The
// same floor keeps a round's resumption or delivery on the domain
// goroutine when fewer nodes than that take part in it.
const shardMin = 256

func (r *runner) fail(err error) { r.sh.fail(err) }

// run drives the domain to its end: resume the round's awake nodes until
// each parks in a round call or finishes, finalize the round's cut, and
// advance to the next round in which some node runs. Between two rounds
// every node is parked, so the domain goroutine owns all scheduling,
// delivery and checkpoint state without locks. However the domain ends
// — completion or abort — every unfinished coroutine is stopped,
// so its program's defers run and no node goroutine outlives the run.
func (r *runner) run() {
	defer r.stopAll()
	for {
		r.resumeAwake()
		if r.sh.aborted.Load() {
			return
		}
		r.tryFinalizeCut()
		if !r.advance() {
			return
		}
	}
}

// resumeAwake runs the round's awake nodes: on the domain goroutine when
// fewer than shardMin are awake, otherwise one pool pass in which each
// worker resumes its own shard's nodes.
func (r *runner) resumeAwake() {
	awake := 0
	for i := range r.sched {
		awake += len(r.sched[i].awake)
	}
	if awake < shardMin {
		for s := range r.sched {
			r.resumeShard(s)
		}
		return
	}
	r.pool.ForEach(func(s, _, _ int) { r.resumeShard(s) })
}

// resumeShard resumes shard s's awake nodes in turn and files each by
// the round it parked for.
func (r *runner) resumeShard(s int) {
	sc := &r.sched[s]
	for _, c := range sc.awake {
		if _, ok := c.resume(); !ok {
			sc.live--
			continue
		}
		if c.wake == r.round+1 {
			sc.next = append(sc.next, c)
		} else {
			sc.cal[c.wake] = append(sc.cal[c.wake], c)
		}
	}
	sc.awake = sc.awake[:0]
}

// advance moves the domain to the next round in which some node runs.
// When nothing is queued and no node is due next round, it jumps to the
// round before the earliest SkipUntil wake; every round entered is
// counted against MaxRounds and delivers whatever is queued, including
// rounds nobody wakes in. The round it stops in gets a staged cut. It
// returns false when the domain is finished or aborted.
func (r *runner) advance() bool {
	for {
		live, due := 0, false
		for i := range r.sched {
			sc := &r.sched[i]
			live += sc.live
			due = due || len(sc.next) > 0 || len(sc.cal[r.round+1]) > 0
		}
		if live == 0 {
			return false
		}
		if !due && !r.anyQueued() {
			// Nothing can happen until a sleeper wakes: count the rounds
			// up to its wake round instead of ticking them one by one.
			if !r.advanceRounds(r.earliestWake() - 1 - r.round) {
				return false
			}
		}
		if !r.advanceRounds(1) {
			return false
		}
		if r.anyQueued() {
			r.deliver()
		}
		awake := 0
		for i := range r.sched {
			sc := &r.sched[i]
			sc.awake, sc.next = sc.next, sc.awake
			if sleepers, ok := sc.cal[r.round]; ok {
				sc.awake = append(sc.awake, sleepers...)
				delete(sc.cal, r.round)
			}
			awake += len(sc.awake)
		}
		// A round nobody runs in gets no staged cut: no node executes in
		// it, so no commit can reference it.
		if awake > 0 {
			if r.ck != nil {
				r.stageCut()
			}
			return true
		}
	}
}

// earliestWake returns the earliest SkipUntil wake round of the domain.
// advance asks only when live nodes remain and none is due next round,
// so every live node sleeps in SkipUntil, at least two rounds ahead.
func (r *runner) earliestWake() int {
	wake := 0
	for i := range r.sched {
		//sbw:orderinvariant min-reduction over the wake rounds; the minimum is order-independent
		for round := range r.sched[i].cal {
			if wake == 0 || round < wake {
				wake = round
			}
		}
	}
	return wake
}

// advanceRounds moves the domain forward by delta rounds, counting them
// against Stats and the MaxRounds cap. It returns false when the run is
// (or becomes) aborted.
func (r *runner) advanceRounds(delta int) bool {
	r.round += delta
	r.stats.Rounds += delta
	if !r.sh.aborted.Load() && r.stats.Rounds > r.cfg.MaxRounds {
		r.fail(fmt.Errorf("%s: exceeded MaxRounds=%d", model, r.cfg.MaxRounds))
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

// deliver moves one queued message per dirty edge into its receiver's
// inbox: on the domain goroutine when fewer than shardMin receivers are
// dirty, otherwise one pool pass in which each worker drains its own
// shard's worklist. Shards touch disjoint receivers and their senders
// are parked, so either way the inboxes, Stats and wake-ups are the
// same.
func (r *runner) deliver() {
	dirty := 0
	for i := range r.work {
		dirty += int(r.work[i].count.Load())
	}
	if dirty < shardMin {
		for s := range r.work {
			r.deliverWork(s)
		}
		return
	}
	r.pool.ForEach(func(s, _, _ int) { r.deliverWork(s) })
}

// deliverWork moves one queued message per directed edge into the
// inboxes of shard wid's dirty receivers: it drains the shard's worklist
// instead of scanning a receiver range, so a round's cost is
// proportional to the receivers that actually have traffic — a BFS wave
// over a million-node domain touches the wavefront, not the domain.
// Each receiver walks its incident edges in sorted sender order (the
// pending-bitmap walk) — the exact delivery order of the sequential
// engine, so results do not depend on the worker count or on the
// worklist's sender-arrival order. Receivers with remaining backlog stay
// on the worklist for the next round. A sender's outbox slot and sentNow
// flag for an edge are touched only by the worker owning the receiving
// endpoint, so delivery needs no locks.
//
//sbw:allocfree engine delivery inner loop: one call per receiver shard per round
func (r *runner) deliverWork(wid int) {
	ws := &r.wstats[wid]
	sw := &r.work[wid]
	list := sw.list[:sw.count.Load()]
	carried := int32(0)
	for _, idx := range list {
		c := r.ctxs[r.nodes[idx]]
		backlog := false
		buf := c.inbox
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
				buf = append(buf, Incoming{From: int(w), Payload: msg}) //sbw:allocok amortized: each node's one inbox is recycled across rounds; steady-state capacity never grows
				ws.Note(len(msg))
			}
			c.pending[wi].Store(keep)
		}
		c.inbox = buf
		if backlog {
			// Still dirty: keep the receiver listed for the next round (its
			// rdirty flag stays set, so senders won't re-append it).
			list[carried] = idx
			carried++
		} else {
			r.rdirty[idx].Store(false)
		}
	}
	sw.count.Store(carried)
}

// stopAll ends every unfinished coroutine of the domain — a stopped
// node's round call unwinds its program — and releases the domain's
// scheduling state, whose lists would otherwise keep the domain's
// arenas reachable after it finished.
func (r *runner) stopAll() {
	for _, v := range r.nodes {
		c := r.ctxs[v]
		if c.stop != nil {
			c.stop()
		}
		c.resume, c.stop, c.yield = nil, nil, nil
	}
	r.sched = nil
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
//
// Each program runs as a coroutine that its domain's goroutine resumes
// round by round, so a program may wait on another node's progress only
// through the round calls (Next, SkipUntil); see Ctx.
func RunWithDomains(top Topology, cfg Config, program func(ctx *Ctx)) (*Stats, []DomainStats, error) {
	cfg = cfg.withDefaults()
	if cfg.Workers < 0 || cfg.Workers > MaxWorkers {
		return nil, nil, fmt.Errorf("%s: Workers=%d is not a usable worker count (want 0 for GOMAXPROCS, or 1..%d)",
			model, cfg.Workers, MaxWorkers)
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
	// components exchange no messages, so each runs its own round loop
	// and pool and their Stats fold as parallel composition (max rounds,
	// summed traffic). Per-node behavior is unchanged — a node's round
	// counter is its own domain's either way.
	//
	// Domains are causally independent, so the engine bounds how many run
	// at once to GOMAXPROCS: on a single-processor host the components of
	// a disconnected run execute back to back with their coroutines
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
				return nil, nil, fmt.Errorf("%s: resume: snapshot domain %d is not a component root of this topology", model, cut.Root)
			}
			if _, dup := resumeByRoot[cut.Root]; dup {
				return nil, nil, fmt.Errorf("%s: resume: snapshot has two cuts for domain %d", model, cut.Root)
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

			r := &runner{
				nodes: comp,
				sh:    sh,
				cfg:   cfg,
				ctxs:  ctxs,
				pool:  NewPoolSized(len(comp), shardMin, cfg.Workers),
				ck:    cfg.Checkpoint,
			}
			runners[ci] = r
			nshards := r.pool.Shards()
			r.wstats = make([]WorkerStats, nshards)
			r.dirty = make([]padCounter, nshards)
			r.rdirty = make([]atomic.Bool, len(comp))
			r.sched = make([]shardSched, nshards)
			// Each shard's worklist is sized to the shard: the rdirty CAS
			// admits every owned receiver at most once.
			r.work = make([]shardWork, nshards)
			for i := range r.work {
				lo, hi := r.pool.Bounds(i)
				r.work[i].list = make([]int32, hi-lo)
				r.sched[i].cal = make(map[int][]*Ctx)
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
			// Every outbox queue starts with one slot of its own, so a
			// node's first send on an edge does not grow a slice deep in
			// its program's stack (see Ctx).
			slotArena := make([]Message, arcs)
			sentNowArena := make([]bool, arcs)
			pendingArena := make([]atomic.Uint64, pwOff[len(comp)])
			inboxArena := make([]Incoming, arcs)
			for idx, v := range comp {
				lo, hi := domOff[idx], domOff[idx+1]
				c := &ctxArena[idx]
				c.r = r
				c.id = int(v)
				c.domIdx = int32(idx)
				c.shard = r.pool.ShardOf(idx)
				c.nbr = neighborsOf(int(v))
				c.srcSlot = srcSlotArena[lo:hi:hi]
				c.outbox = outboxArena[lo:hi:hi]
				for k := lo; k < hi; k++ {
					c.outbox[k-lo].buf = slotArena[k : k : k+1]
				}
				c.sentNow = sentNowArena[lo:hi:hi]
				c.pending = pendingArena[pwOff[idx]:pwOff[idx+1]:pwOff[idx+1]]
				// The inbox starts with capacity deg; a SkipUntil that
				// accumulates more re-slices off-arena via append, which is
				// safe (the carve caps at the region end).
				c.inbox = inboxArena[lo:lo:hi]
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
			if cut := resumeByRoot[comp[0]]; cut != nil {
				r.restoreCut(cut)
			}
			// Seed the staged cut with the domain's start state (round 0,
			// or the restored cut), so commits in the very first executed
			// round finalize against a matching stage.
			if r.ck != nil {
				r.stageCut()
			}

			// Every unfinished node runs in the domain's first round; a
			// fully finished domain (final cut) starts nothing.
			for _, v := range comp {
				c := ctxs[v]
				if c.commitDone {
					continue // finished in the resumed cut; never respawned
				}
				c.start(program)
				sc := &r.sched[c.shard]
				sc.awake = append(sc.awake, c)
				sc.live++
			}
			r.run()
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
			// in later rounds; only messages left after the last node exits
			// were truly dropped, which indicates a protocol bug.
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
				sh.err = fmt.Errorf("%s: node %d finished with undelivered queued messages", model, v)
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
