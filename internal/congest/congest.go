// Package congest simulates the synchronous CONGEST message-passing model
// [Pel00]: n nodes host processors on the vertices of a communication
// graph; computation proceeds in synchronous rounds; in each round every
// node may send one message of O(log n) bits over each incident edge and
// perform arbitrary local computation.
//
// Node programs are ordinary blocking Go functions — one goroutine per
// node — that call Ctx.Send to queue messages and Ctx.Next to end the
// current round (a barrier) and receive the messages delivered for the
// next one. The simulator:
//
//   - enforces the bandwidth cap (messages wider than MaxWords are a
//     protocol violation and abort the run with an error);
//   - supports per-edge FIFO queueing (SendQueued) so that multiple
//     logical messages contending for one edge are automatically
//     pipelined, which is how the congestion-κ cluster trees of the
//     network decomposition pay their true round cost;
//   - counts rounds, messages, and words, and records the widest message
//     observed, so every complexity claim in the paper is *measured*.
//
// # Engine
//
// The package is a thin adapter over the shared sharded round engine
// (internal/engine), which the CONGESTED CLIQUE and MPC simulators run
// on as well: the communication graph is the engine's Topology, and the
// atomic barrier, receiver-sharded parallel delivery, double-buffered
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
// only from that node's own goroutine.
type Ctx = engine.Ctx

// Checkpoint/restore types, shared with the engine: a Checkpointer
// attached to a run collects consistent per-domain cuts at the round
// barriers in which every node committed its state (Ctx.Commit), and a
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

// Config controls the simulation.
type Config struct {
	// MaxWords is the bandwidth cap per edge per direction per round, in
	// 64-bit words. Zero means the default of 4 words (≈ 4·64 bits, a
	// constant number of O(log n)-bit words).
	MaxWords int
	// MaxRounds aborts runs that exceed this many rounds (default 1<<22),
	// turning protocol livelocks into test failures instead of hangs.
	MaxRounds int
	// Workers bounds the engine's delivery/compute parallelism: 0 sizes
	// the worker pool from GOMAXPROCS, n > 0 caps it at n shards. Stats
	// and protocol outcomes are bit-identical for every setting.
	Workers int
	// Checkpoint, when non-nil, collects consistent cuts of the run.
	Checkpoint *Checkpointer
	// Resume, when non-nil, restores the run from a snapshot before any
	// node program starts.
	Resume *RunSnapshot
}

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
	return engine.RunWithDomains(g, engine.Config{
		Model:      "congest",
		MaxWords:   cfg.MaxWords,
		MaxRounds:  cfg.MaxRounds,
		Workers:    cfg.Workers,
		Checkpoint: cfg.Checkpoint,
		Resume:     cfg.Resume,
	}, program)
}

// DeliveryShards reports how many delivery shards the engine cuts an
// n-endpoint domain into under the given worker bound (0 = GOMAXPROCS).
// Callers that pad per-edge arenas at shard boundaries (so no two
// shards' nodes share a cache line) use it to place the pads where the
// engine will actually cut.
func DeliveryShards(n, workers int) int { return engine.ShardsFor(n, workers) }
