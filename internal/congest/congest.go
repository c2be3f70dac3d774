// Package congest simulates the synchronous CONGEST message-passing model
// [Pel00]: n nodes host processors on the vertices of a communication
// graph; computation proceeds in synchronous rounds; in each round every
// node may send one message of O(log n) bits over each incident edge and
// perform arbitrary local computation.
//
// Node programs are ordinary blocking Go functions that call Ctx.Send to
// queue messages and Ctx.Next to end the current round and receive the
// messages delivered for the next one. Each program runs as a coroutine
// the engine resumes round by round, so it may wait on another node only
// through the round calls (Next, SkipUntil, and the helpers built on
// them here). The simulator:
//
//   - enforces the bandwidth cap (messages wider than MaxWords are a
//     protocol violation and abort the run with an error);
//   - supports per-edge FIFO queueing (SendQueued) so that multiple
//     logical messages contending for one edge are pipelined, one per
//     round. The tree aggregation (ConvergeSumLockstepTo) queues its
//     chunks this way; the network decomposition's congestion κ is
//     charged in closed form (netdecomp's ChargedRounds), not queued;
//   - counts rounds, messages, and words, and records the widest message
//     observed, so every complexity claim in the paper is *measured*.
//
// The BFS spanning forest that aggregations run over is laid out from
// the graph (LayoutBFS), together with the rounds and traffic of the
// flooding build that would construct it, so a protocol charges the
// build instead of running it.
//
// # Engine
//
// The package is a thin adapter over the shared sharded round engine
// (internal/engine), which the CONGESTED CLIQUE and MPC simulators run
// on as well: the communication graph is the engine's Topology, and the
// coroutine round loop, receiver-sharded parallel delivery, the per-node
// inboxes, and dirty-edge skipping all live in the engine — one copy of
// the hot path for all three models. Stats are bit-for-bit independent
// of the engine's worker count.
package congest

import (
	"smallbandwidth/internal/engine"
	"smallbandwidth/internal/graph"
)

// Message is the payload of one CONGEST message: a short slice of 64-bit
// words. In the standard parameterization one word models Θ(log n) bits.
type Message = engine.Message

// Incoming is a delivered message together with its sender's node ID.
type Incoming = engine.Incoming

// Stats aggregates the measured cost of a run.
type Stats = engine.Stats

// Ctx is a node's handle to the simulation. All methods must be called
// only from that node's own program.
type Ctx = engine.Ctx

// Checkpoint/restore types, shared with the engine: a Checkpointer
// attached to a run collects consistent per-domain cuts between the
// rounds in which every node committed its state (Ctx.Commit), and a
// RunSnapshot restores a run from such cuts. A resumed node program
// decodes its own committed blob from the snapshot (DomainCut.Nodes).
type (
	// Checkpointer collects the cuts of a run.
	Checkpointer = engine.Checkpointer
	// RunSnapshot is a consistent cut of a whole run, one DomainCut per
	// lockstep domain.
	RunSnapshot = engine.RunSnapshot
	// DomainCut is one connected component's consistent cut.
	DomainCut = engine.DomainCut
)

// Config controls the simulation: the bandwidth cap, the round cap,
// the worker bound, and checkpoint/resume (see engine.Config).
type Config = engine.Config

// DomainStats is one connected component's share of a run's Stats.
type DomainStats = engine.DomainStats

// MaxWorkers is the largest accepted Config.Workers value (engine's
// sanity cap): anything above it is a typo, not a machine.
const MaxWorkers = engine.MaxWorkers

// Run executes program on every node of g until all node programs return.
// It returns the measured statistics, or an error if any node violated
// the model, panicked, or the round cap was hit.
func Run(g *graph.Graph, cfg Config, program func(ctx *Ctx)) (*Stats, error) {
	st, _, err := RunWithDomains(g, cfg, program)
	return st, err
}

// RunWithDomains is Run, additionally reporting each connected
// component's own Stats (ordered by smallest member).
func RunWithDomains(g *graph.Graph, cfg Config, program func(ctx *Ctx)) (*Stats, []DomainStats, error) {
	return engine.RunWithDomains(g, cfg, program)
}

// DeliveryShards reports how many delivery shards the engine cuts an
// n-endpoint domain into under the given worker bound (0 = GOMAXPROCS).
// Callers that pad per-edge arenas at shard boundaries (so no two
// shards' nodes share a cache line) use it to place the pads where the
// engine will actually cut.
func DeliveryShards(n, workers int) int { return engine.ShardsFor(n, workers) }
