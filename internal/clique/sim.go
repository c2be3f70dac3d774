// Package clique simulates the UNICAST CONGESTED CLIQUE model [LPPP03]
// and implements the paper's Theorem 1.3: deterministic
// (degree+1)-list coloring in O(loglogΔ·logC) rounds. The communication
// graph is complete — in each round every node may send a *different*
// O(log n)-bit message to every other node — while the input graph G is
// arbitrary.
//
// The simulator is data-parallel rather than goroutine-per-node (there
// is no topology to exploit; the algorithm keeps all per-node knowledge
// in per-node structs and moves information only through
// Exchange/RouteAll, so the model's information constraints hold by
// construction and every claimed O(1)-round step is paid for
// explicitly). Both primitives run on the shared sharded round engine
// (internal/engine): outboxes are flat slices of directed messages, and
// an engine.Scatter pass moves them — sender-sharded routing, then
// receiver-sharded delivery in ascending sender order with per-worker
// stats — so delivery is allocation-lean and bit-for-bit independent of
// the worker count.
//
// Lenzen's deterministic routing theorem [Len13] is modeled by RouteAll:
// the primitive checks its precondition (every node sends at most n and
// receives at most n messages) and then delivers in 2 accounted rounds.
// The internals of Lenzen routing are outside the paper's scope (used as
// a black box); the precondition check keeps the accounting honest —
// violating workloads fail loudly instead of getting free bandwidth.
package clique

import (
	"cmp"
	"fmt"
	"slices"

	"smallbandwidth/internal/engine"
)

// Message is a single clique message (counted words of Θ(log n) bits).
type Message = engine.Message

// Directed is one outgoing message with its destination; out[v] in
// Exchange is node v's flat outbox of these.
type Directed = engine.Directed

// Incoming is a delivered message with its sender; in[v] returned by
// Exchange is sorted by ascending sender.
type Incoming = engine.Incoming

// Stats aggregates measured costs.
type Stats = engine.Stats

// poolMin is the minimum number of nodes per delivery shard; below it
// the pool collapses to the inline sequential path.
const poolMin = 32

// Sim is one congested-clique simulation. Call Close when done: the
// engine pool's shard workers are persistent goroutines.
type Sim struct {
	n        int
	maxWords int
	Stats    Stats
	p        *engine.Pool
	inBuf    [][]Incoming // recycled inboxes: backing arrays live across rounds
}

// NewSim creates a simulator for n nodes with the given per-message word
// cap (0 = default 4).
func NewSim(n, maxWords int) *Sim {
	if maxWords == 0 {
		maxWords = 4
	}
	return &Sim{n: n, maxWords: maxWords}
}

// Close releases the engine pool. The Sim must not be used afterwards.
func (s *Sim) Close() {
	if s.p != nil {
		s.p.Close()
		s.p = nil
	}
}

func (s *Sim) pool() *engine.Pool {
	if s.p == nil {
		s.p = engine.NewPool(s.n, poolMin)
	}
	return s.p
}

// NewOut returns an empty outbox set for one Exchange round.
func NewOut(n int) [][]Directed { return make([][]Directed, n) }

// Lookup returns the message from node u in the sorted inbox box, if
// any (binary search over the ascending sender order).
func Lookup(box []Incoming, u int) (Message, bool) {
	i, ok := slices.BinarySearchFunc(box, u, func(m Incoming, u int) int {
		return cmp.Compare(m.From, u)
	})
	if !ok {
		return nil, false
	}
	return box[i].Payload, true
}

// Exchange performs one round: out[v] is node v's outbox of directed
// messages. It enforces one message per ordered pair and the word cap,
// and returns in[v] = the messages received by v, sorted by ascending
// sender. The returned inboxes are recycled: they are valid only until
// the next Exchange call on this Sim.
func (s *Sim) Exchange(out [][]Directed) ([][]Incoming, error) {
	if len(out) != s.n {
		return nil, fmt.Errorf("clique: Exchange with %d outboxes for %d nodes", len(out), s.n)
	}
	s.Stats.Rounds++
	p := s.pool()
	k := p.Shards()
	if s.inBuf == nil {
		s.inBuf = make([][]Incoming, s.n)
	}
	in := s.inBuf
	for v := range in {
		in[v] = in[v][:0]
	}
	sendErr := make([]error, k)
	recvErr := make([]error, k)
	wstats := make([]engine.WorkerStats, k)
	engine.Scatter(p,
		func(wid, v int, emit func(int, Message)) {
			if sendErr[wid] != nil {
				return
			}
			for _, d := range out[v] {
				u := int(d.To)
				if u == v || u < 0 || u >= s.n {
					sendErr[wid] = fmt.Errorf("clique: node %d sent to invalid destination %d", v, u)
					return
				}
				if len(d.Payload) == 0 || len(d.Payload) > s.maxWords {
					sendErr[wid] = fmt.Errorf("clique: node %d message of %d words (cap %d)", v, len(d.Payload), s.maxWords)
					return
				}
				wstats[wid].Note(len(d.Payload))
				emit(u, d.Payload)
			}
		},
		func(wid int, src, dst int32, msg Message) {
			box := in[dst]
			if len(box) > 0 && box[len(box)-1].From == int(src) {
				if recvErr[wid] == nil {
					recvErr[wid] = fmt.Errorf("clique: node %d sent twice to %d in one round", src, dst)
				}
				return
			}
			in[dst] = append(box, Incoming{From: int(src), Payload: msg})
		})
	for _, errs := range [2][]error{sendErr, recvErr} {
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
	}
	s.Stats.MergeWorkers(wstats)
	return in, nil
}

// Routed is a message with an explicit destination, for RouteAll.
type Routed struct {
	Dst     int
	Payload Message
}

// Received is a routed message with its source.
type Received struct {
	Src     int
	Payload Message
}

// RouteAll models Lenzen's routing: any point-to-point pattern in which
// every node sends ≤ n and receives ≤ n messages is delivered in 2
// rounds; larger workloads are split into ⌈max/n⌉ such batches and
// charged 2 rounds each, so a Θ(c·n) workload costs Θ(c) rounds exactly
// as in [Len13]. in[v] is sorted by ascending source (ties in the
// sender's emission order).
func (s *Sim) RouteAll(out [][]Routed) ([][]Received, error) {
	if len(out) != s.n {
		return nil, fmt.Errorf("clique: RouteAll with %d outboxes for %d nodes", len(out), s.n)
	}
	p := s.pool()
	k := p.Shards()
	in := make([][]Received, s.n)
	sendErr := make([]error, k)
	wstats := make([]engine.WorkerStats, k)
	maxSent := make([]int, k)
	engine.Scatter(p,
		func(wid, v int, emit func(int, Message)) {
			if sendErr[wid] != nil {
				return
			}
			if len(out[v]) > maxSent[wid] {
				maxSent[wid] = len(out[v])
			}
			for _, m := range out[v] {
				if m.Dst < 0 || m.Dst >= s.n {
					sendErr[wid] = fmt.Errorf("clique: node %d routes to invalid destination %d", v, m.Dst)
					return
				}
				if len(m.Payload) == 0 || len(m.Payload) > s.maxWords {
					sendErr[wid] = fmt.Errorf("clique: node %d routed message of %d words (cap %d)",
						v, len(m.Payload), s.maxWords)
					return
				}
				wstats[wid].Note(len(m.Payload))
				emit(m.Dst, m.Payload)
			}
		},
		func(wid int, src, dst int32, msg Message) {
			in[dst] = append(in[dst], Received{Src: int(src), Payload: msg})
		})
	for _, err := range sendErr {
		if err != nil {
			return nil, err
		}
	}
	maxLoad := 1
	for _, m := range maxSent {
		if m > maxLoad {
			maxLoad = m
		}
	}
	for v := range in {
		if len(in[v]) > maxLoad {
			maxLoad = len(in[v])
		}
	}
	batches := (maxLoad + s.n - 1) / s.n
	s.Stats.Rounds += 2 * batches // Lenzen routing cost (substitution; see DESIGN.md)
	s.Stats.MergeWorkers(wstats)
	return in, nil
}
