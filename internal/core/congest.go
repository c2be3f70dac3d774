package core

import (
	"encoding/binary"
	"fmt"
	"sort"

	"smallbandwidth/internal/congest"
	"smallbandwidth/internal/gf2"
	"smallbandwidth/internal/graph"
	"smallbandwidth/internal/linial"
)

// Message tags of the coloring protocol (≥ congest.UserTagBase).
const (
	tagLinial uint64 = congest.UserTagBase + iota // [tag, color]
	tagPhase                                      // [tag, k1, |L|, ψ]
	tagBit                                        // [tag, bit]
	tagV4                                         // [tag, inV4]
	tagHLin                                       // [tag, hColor]
	tagMIS                                        // [tag]
	tagFinal                                      // [tag, color]
)

// Result reports the outcome and the measured cost of a run.
type Result struct {
	Colors     []uint32 // proper list coloring, one per node
	Stats      congest.Stats
	Iterations int   // partial-coloring iterations executed
	Colored    []int // nodes permanently colored in each iteration
	AliveAt    []int // uncolored nodes at the start of each iteration
	// PotentialStart[i] is Σ_v Φ₀(v) at the start of iteration i;
	// PotentialPhase[i][ℓ−1] is Σ_v Φ_ℓ(v) after phase ℓ (when
	// Options.TrackPotentials is set).
	PotentialStart []float64
	PotentialPhase [][]float64
	Params         *Params
	Done           bool // all nodes colored (false only with MaxIterations)
}

// ListColorCONGEST solves the (degree+1)-list-coloring instance in the
// simulated CONGEST model (Theorem 1.1): an O(log* n)-round Linial
// coloring for symmetry breaking, then partial-coloring iterations
// (Lemma 2.1), each derandomizing ⌈logC⌉ prefix-extension phases with
// seed bits fixed one by one via conditional expectations aggregated over
// a BFS tree, followed by an MIS step on the ≤3-degree conflict graph.
//
// The graph may be disconnected: every connected component runs the
// protocol independently inside the *same* engine run, rooted at its
// smallest member ID (per the remark after Theorem 1.1, the diameter term
// becomes the maximum component diameter). The per-component BFS trees
// keep every converge() aggregation component-local, a component's nodes
// exit as soon as that component is fully colored, and no message ever
// crosses a component boundary — so the reported Stats.Rounds is the
// maximum over components while Messages/Words are sums, exactly the
// parallel-composition accounting of the model. Per-iteration telemetry
// (AliveAt, Colored, potentials) sums components at the same iteration
// index.
//
// Each component also derives its own parameter set from its local
// (n, Δ) — the per-cluster reading of Corollary 1.2 — and seeds its
// Linial coloring from component-local node ranks, so a component runs
// round-for-round exactly as a standalone run of its own 0..k−1-labeled
// instance: batching many components into one engine run never changes
// any component's rounds, messages, or coloring choices. Result.Params
// reports the instance-global set used by single-component runs.
//
// Because a component's entire run is a deterministic function of its
// rank-relabeled adjacency and lists, components that are identical
// under relabeling produce bit-identical runs — so the simulator runs
// ONE representative per identity class and replicates its coloring,
// scaling the telemetry and per-component traffic by the class size.
// The reported Colors/Stats/telemetry are exactly what simulating every
// component would produce (and the final VerifyColoring checks the full
// instance), at a fraction of the wall-clock on workloads with many
// equal components, such as the per-class cluster batches of the
// Corollary 1.2 pipeline.
func ListColorCONGEST(inst *graph.Instance, opts Options) (*Result, error) {
	p, err := ComputeParams(inst, opts)
	if err != nil {
		return nil, err
	}
	if inst.G.N() == 0 {
		return &Result{Params: p, Done: true}, nil
	}
	comps := inst.G.ConnectedComponents()
	groups := groupIdenticalComponents(inst, comps)
	if len(groups) == len(comps) {
		// Every component is distinct: run the instance as given.
		res, _, err := runColoringDomains(inst, opts, p, nil, comps, nil)
		return res, err
	}

	// Deduplicated run: one representative component per identity class,
	// telemetry weighted by class size.
	var repMembers []int
	starts := make([]int, len(groups)) // group -> first reduced node ID
	for gi, g := range groups {
		starts[gi] = len(repMembers)
		repMembers = append(repMembers, comps[g[0]]...)
	}
	sub, orig := inst.G.InducedSubgraph(repMembers)
	subLists := make([][]uint32, sub.N())
	for i, v := range orig {
		subLists[i] = inst.Lists[v]
	}
	weights := make([]int, sub.N())
	multByRoot := make(map[int]int64, len(groups))
	for gi, g := range groups {
		end := len(repMembers)
		if gi+1 < len(groups) {
			end = starts[gi+1]
		}
		for i := starts[gi]; i < end; i++ {
			weights[i] = len(g)
		}
		multByRoot[starts[gi]] = int64(len(g))
	}
	subInst := &graph.Instance{G: sub, C: inst.C, Lists: subLists}
	rep, domStats, err := runColoringDomains(subInst, opts, p, weights, nil, nil)
	if err != nil {
		return nil, err
	}

	// Fold the representative run back onto the full instance: colors by
	// rank, traffic scaled by class size, rounds already the max.
	res := &Result{
		Colors:         make([]uint32, inst.G.N()),
		Stats:          congest.Stats{Rounds: rep.Stats.Rounds, MaxMessageWords: rep.Stats.MaxMessageWords},
		Params:         p,
		Done:           rep.Done,
		Iterations:     rep.Iterations,
		Colored:        rep.Colored,
		AliveAt:        rep.AliveAt,
		PotentialStart: rep.PotentialStart,
		PotentialPhase: rep.PotentialPhase,
	}
	for _, ds := range domStats {
		mult := multByRoot[ds.Root]
		res.Stats.Messages += ds.Stats.Messages * mult
		res.Stats.Words += ds.Stats.Words * mult
	}
	for gi, g := range groups {
		for _, ci := range g {
			comp := comps[ci]
			for i := range comp {
				res.Colors[comp[i]] = rep.Colors[starts[gi]+i]
			}
		}
	}
	if res.Done {
		if err := inst.VerifyColoring(res.Colors); err != nil {
			return nil, fmt.Errorf("core: replicated coloring failed verification: %w", err)
		}
	}
	return res, nil
}

// groupIdenticalComponents partitions the component indices into
// identity classes: two components are identical when their
// rank-relabeled adjacency and per-rank color lists are byte-equal
// (list-coloring runs are deterministic functions of exactly that data,
// plus the shared C and options). Grouping is by exact signature bytes
// — no hashing, no collisions. Each class lists its component indices
// ascending; classes are ordered by first appearance.
func groupIdenticalComponents(inst *graph.Instance, comps [][]int) [][]int {
	if len(comps) == 1 {
		return [][]int{{0}}
	}
	index := make(map[string]int, len(comps))
	var groups [][]int
	var sig []byte
	for ci, comp := range comps {
		sig = sig[:0]
		sig = binary.AppendUvarint(sig, uint64(len(comp)))
		for _, v := range comp {
			list := inst.Lists[v]
			sig = binary.AppendUvarint(sig, uint64(len(list)))
			for _, c := range list {
				sig = binary.AppendUvarint(sig, uint64(c))
			}
			nbrs := inst.G.Neighbors(v)
			sig = binary.AppendUvarint(sig, uint64(len(nbrs)))
			for _, w := range nbrs {
				// comp is sorted, so the index is the neighbor's rank.
				sig = binary.AppendUvarint(sig, uint64(sort.SearchInts(comp, int(w))))
			}
		}
		if gi, ok := index[string(sig)]; ok {
			groups[gi] = append(groups[gi], ci)
		} else {
			index[string(sig)] = len(groups)
			groups = append(groups, []int{ci})
		}
	}
	return groups
}

// runColoringDomains executes the protocol on inst (connected or not)
// and assembles the Result together with the per-component engine
// stats. weights[v], when non-nil, scales node v's telemetry
// contributions (the multiplicity of the identity class its component
// represents); a non-nil weights slice also forces per-component
// parameter sets even for a single-component instance, since the
// instance then stands for components of a larger original. comps, when
// non-nil, is inst.G.ConnectedComponents() precomputed by the caller.
// ckr, when non-nil, attaches checkpoint collection and/or restores the
// run from a snapshot, whose node blobs it decodes and checks against
// the run's BFS layout (see checkpoint.go); restored runs are
// incompatible with telemetry weighting.
func runColoringDomains(inst *graph.Instance, opts Options, p *Params, weights []int, comps [][]int, ckr *ckRun) (*Result, []congest.DomainStats, error) {
	// Component-local ranks and component parameter sets. Every node can
	// derive both locally in O(D) rounds by a leader-election flood plus
	// local aggregates, so handing them to the programs charges no
	// rounds. The rank seeds the Linial input coloring (ranks are
	// distinct within a component, which is all Linial needs).
	if comps == nil {
		comps = inst.G.ConnectedComponents()
	}
	ranks := make([]uint64, inst.G.N())
	params := make([]*Params, inst.G.N())
	perComp := len(comps) > 1 || weights != nil
	for _, comp := range comps {
		cp := p
		if perComp {
			delta := 0
			for _, v := range comp {
				if d := inst.G.Degree(v); d > delta {
					delta = d
				}
			}
			var err error
			cp, err = computeParamsFor(len(comp), delta, inst.C, opts)
			if err != nil {
				return nil, nil, err
			}
		}
		for i, v := range comp {
			ranks[v] = uint64(i)
			params[v] = cp
		}
	}

	// Every component's BFS tree, rooted at its smallest member, as the
	// flooding build would leave it, with the round the build returns in
	// and the traffic it sends: the nodes replay the build from it
	// (layTree) instead of running it.
	lay := congest.LayoutBFS(inst.G)

	// One phase hub per component: the bulk seed-bit aggregation seam
	// (bulk.go), fanned out over as many work bands as the engine would
	// cut delivery shards for the component alone, and the tally of the
	// iteration-top alive count. opts.refEval builds none: its alive
	// counts and phases run real aggregation waves, which the
	// differential tests pin the hub against.
	var hubs map[int]*phaseHub
	if !opts.refEval {
		hubs = make(map[int]*phaseHub, len(comps))
		for _, comp := range comps {
			bands := congest.DeliveryShards(len(comp), opts.Workers)
			h := newPhaseHub(len(comp), params[comp[0]], bands)
			h.layFold(comp, lay, ranks)
			hubs[comp[0]] = h
		}
	}

	// The node programs write every node's final state into cr; the
	// telemetry is folded from it after the run.
	cr := &coloringRun{
		inst:        inst,
		opts:        opts,
		params:      params,
		lay:         lay,
		ranks:       ranks,
		weights:     weights,
		hubs:        hubs,
		ar:          newRunArenas(inst, opts.Workers),
		colors:      make([]uint32, inst.G.N()),
		coloredFlag: make([]bool, inst.G.N()),
		coloredAt:   make([]int32, inst.G.N()),
	}
	if opts.TrackPotentials {
		cr.pots = make([][]float64, inst.G.N())
	}

	cfg := congest.Config{MaxWords: opts.MaxWords, MaxRounds: opts.MaxRounds, Workers: opts.Workers}
	if ckr != nil {
		cfg.Checkpoint = ckr.ck
		cfg.Resume = ckr.snap
		if ckr.snap != nil {
			if weights != nil {
				return nil, nil, fmt.Errorf("core: cannot resume a telemetry-weighted run")
			}
			var err error
			if cr.restore, err = decodeRestore(inst, comps, lay, ckr.snap); err != nil {
				return nil, nil, err
			}
		}
		// Nodes already done in the snapshot never rerun: graft their
		// final state directly.
		for v, rs := range cr.restore {
			if rs != nil && rs.done {
				cr.colors[v], cr.coloredFlag[v], cr.coloredAt[v] = rs.color, rs.colored, int32(rs.coloredAt)
			}
		}
	}
	stats, domStats, err := congest.RunWithDomains(inst.G, cfg, cr.program)
	if err != nil {
		return nil, nil, err
	}
	colors, coloredFlag, coloredAt, pots := cr.colors, cr.coloredFlag, cr.coloredAt, cr.pots

	// Fold the telemetry. A node is alive at the top of iterations
	// 0..coloredAt, or of all MaxIterations when it ends uncolored (only
	// the cap stops a component with an alive node).
	res := &Result{Colors: colors, Stats: *stats, Params: p, Done: true}
	for v, ok := range coloredFlag {
		w := 1
		if weights != nil {
			w = weights[v]
		}
		alive := int(coloredAt[v]) + 1
		if !ok {
			res.Done = false
			alive = opts.MaxIterations
		}
		for len(res.AliveAt) < alive {
			res.AliveAt = append(res.AliveAt, 0)
			res.Colored = append(res.Colored, 0)
		}
		for i := 0; i < alive; i++ {
			res.AliveAt[i] += w
		}
		if ok {
			res.Colored[alive-1] += w
		}
	}
	res.Iterations = len(res.AliveAt)
	if pots != nil {
		// Node v recorded Φ₀..Φ_LogC for each iteration it was alive in.
		// Every sum adds its terms in ascending node order, so the floats
		// are the same at every worker count.
		stride := p.LogC + 1
		for i := 0; i < res.Iterations; i++ {
			sums := make([]float64, stride)
			for _, rec := range pots {
				if len(rec) > i*stride {
					for l, phi := range rec[i*stride : (i+1)*stride] {
						sums[l] += phi
					}
				}
			}
			res.PotentialStart = append(res.PotentialStart, sums[0])
			res.PotentialPhase = append(res.PotentialPhase, sums[1:])
		}
	}
	if res.Done && weights == nil {
		if err := inst.VerifyColoring(colors); err != nil {
			return nil, nil, fmt.Errorf("core: produced coloring failed verification: %w", err)
		}
	}
	return res, domStats, nil
}

// coloringRun is one run's input to its node programs and the home of
// their results.
type coloringRun struct {
	inst    *graph.Instance
	opts    Options
	params  []*Params
	lay     *congest.BFSLayout
	ranks   []uint64
	weights []int
	hubs    map[int]*phaseHub // nil with opts.refEval
	ar      *runArenas
	restore []*nodeRestore // by node ID; nil entries start fresh

	// Every node's final state, written by the node itself when its
	// program ends.
	colors      []uint32
	coloredFlag []bool
	coloredAt   []int32
	pots        [][]float64 // with TrackPotentials
}

// program is every node's program.
//
// The stack rule (engine.Ctx): a node's coroutine starts on a 2 KB
// stack, which must hold the runtime's coroutine frames, the protocol
// frames live at the node's deepest park, and whatever runs on top of
// them — about 700 B for the protocol's share. So the functions that
// stay live across round calls (program, run, loop, aliveCount,
// countAlive, partialIteration, misStep, runPhase, runPhaseBulk,
// finishPhase, finishIteration) keep
// to control flow. The work between two round calls runs in helpers
// that return before the next park (sendPhase, bindPhase, sendBit,
// takeBits, sendV4, …); node setup and the final write run out of
// line; every buffer a node reuses is made at setup, not deep in a
// step; and every diagnostic is formatted out of line (fault). The
// coordinator of a phase's seed bits is the one exception: its stack
// may grow, once per component per phase. TestNodeStacksFitStartingSize
// holds the rule, and "Node stacks" in docs/PERF.md has the figures.
func (cr *coloringRun) program(ctx *congest.Ctx) {
	ns, iter := cr.newNode(ctx)
	if iter < 0 {
		ns.run()
	} else {
		ns.loop(iter)
	}
	cr.record(ns)
}

// newNode sets up node ctx's state: parameters, arena carves, hub
// registration and, on a resumed node, the restored state. It returns
// the iteration a resumed node re-enters the loop at, or −1 for a node
// that starts from the tree build.
//
//go:noinline
func (cr *coloringRun) newNode(ctx *congest.Ctx) (*nodeState, int) {
	v := ctx.ID()
	w := 1
	if cr.weights != nil {
		w = cr.weights[v]
	}
	ns := &nodeState{ctx: ctx, p: cr.params[v], opts: cr.opts,
		lay: cr.lay, rank: cr.ranks[v], weight: w}
	if cr.hubs != nil {
		// Register once, at node start: the hub's alive tally reads every
		// slot, including the colored nodes that sleep through whole
		// iterations and never enter a phase again.
		ns.hub = cr.hubs[cr.lay.TreeOf(v).Root]
		ns.rankOf = cr.ranks
		ns.hub.slots[ns.rank].ns = ns
	} else {
		ns.ref = cr.lay.Tree(v)
	}
	ns.init(cr.inst, cr.ar)
	if cr.restore != nil && cr.restore[v] != nil {
		rs := cr.restore[v]
		ns.applyRestore(rs)
		return ns, rs.iter
	}
	return ns, -1
}

// record writes the finished node's final state into the run's result,
// and clears the node's hub slot: a component's nodes all finish after
// the same final alive count, so no hub reads the slot again, and the
// finished node's state and engine arenas can be collected while other
// components still run.
//
//go:noinline
func (cr *coloringRun) record(ns *nodeState) {
	if ns.hub != nil {
		ns.hub.slots[ns.rank].ns = nil
	}
	v := ns.ctx.ID()
	cr.colors[v], cr.coloredFlag[v], cr.coloredAt[v] = ns.color, ns.colored, int32(ns.coloredAt)
	if cr.pots != nil {
		cr.pots[v] = ns.pots
	}
}

// nodeState is the per-node protocol state.
type nodeState struct {
	ctx    *congest.Ctx
	p      *Params
	opts   Options
	rank   uint64 // rank within the component (sorted order); seeds Linial
	weight int    // telemetry multiplier: how many identical components this node's component stands for

	// lay holds every component's BFS tree; ref is this node's view of
	// its own, with opts.refEval only, whose aggregations run as real
	// waves over it.
	lay *congest.BFSLayout
	ref *congest.Tree
	op  uint64

	psi       uint64   // Linial input color in [K]
	list      []uint32 // remaining allowed colors
	color     uint32
	colored   bool
	alive     bool
	coloredAt int // iteration that colored this node; −1 while uncolored

	aliveNbr []bool // by neighbor index: neighbor still uncolored

	// Per-iteration state.
	cands    []uint32
	conflict []bool // by neighbor index: same prefix, both alive
	nbrK1    []uint64
	nbrLen   []uint64
	nbrPsi   []uint64

	// Reused scratch: these are rewritten every iteration/phase, and
	// keeping them on the node state (instead of allocating per use)
	// removes the dominant steady-state allocations of a run.
	hNbr      []bool
	nbrColors []uint64

	// myForms are this node's coin forms: they depend only on (ψ, B), so
	// loop builds them once, when ψ is final, into the buffer init made,
	// and every phase binds them to its threshold. The hub lays them out
	// once in its lane table.
	myForms []gf2.Form

	// blob is the reused buffer of commitBlob, sized by init when a
	// checkpointer is attached and dropped once the node commits final.
	blob []byte

	pots []float64 // with TrackPotentials: weighted Φ₀..Φ_LogC per alive iteration

	ownedIdx  []int32 // neighbor indexes of owned conflict edges (rebuilt per phase)
	ownedSlot []int32 // hub slots of those neighbors, in the same order
	margRead  bool    // some conflict neighbor owns an edge into this node (this phase)

	// Bulk-aggregation seam (bulk.go): the component's phase hub and the
	// shared node→rank table that names a neighbor's hub slot. nil/unset
	// with opts.refEval, whose aggregations run as real waves.
	hub    *phaseHub
	rankOf []uint64

	// Phase-scoped inputs of the seed-bit loop, stored so the hub can
	// evaluate this node's edges centrally: this node's bit-split counts
	// and bound coin (runPhase prologue). An owner reads its neighbor's
	// coin here, by the neighbor's slot.
	phK1, phK0 int
	phMyCoin   gf2.Coin

	// msgArena holds the reusable outgoing payload buffers, 4 words (the
	// bandwidth cap) per neighbor, two arenas alternating by round
	// parity: a payload written in round r is read by its receiver
	// during round r+1 — possibly while the sender is already writing
	// its round-r+1 messages — so consecutive rounds must not share
	// buffers. With two arenas a buffer is rewritten no earlier than
	// round r+2, by when the engine's round loop guarantees the
	// round-r+1 read has happened-before the write.
	//
	// So an arena payload must be read in the round after it was sent.
	// A message its receiver may read later — one that arrives while
	// the receiver sleeps in SkipUntil, like tagMIS during the MIS
	// sweep — must not come from the arena: send a shared immutable
	// payload (misMsg) instead.
	msgArena [2][]uint64
}

// msgBuf returns the empty reusable payload buffer for neighbor index i
// in the current round (append up to 4 words, then Send).
func (ns *nodeState) msgBuf(i int) congest.Message {
	a := ns.msgArena[ns.ctx.Round()&1]
	return a[4*i : 4*i : 4*i+4]
}

// runArenas holds one run's per-edge node state in flat arrays carved
// per node: node v's share of every array is the range
// [off[v], off[v+1]) — so a run makes one allocation per kind of state
// instead of one per node, and a node's conflict walks touch memory
// contiguous in its edge IDs. Each node writes only its own carved
// range, so sharing the arrays across the engine's node goroutines is
// race-free. The list/cands arrays use their own offsets (per-node
// color lists are deg+1+slack long, not deg).
type runArenas struct {
	// off is the per-node carve offset table: the graph's CSR arc
	// offsets, shifted by a cache-line-sized gap at every engine
	// delivery-shard boundary so that two shards' node states never
	// share a line (newRunArenas).
	off []int32

	aliveNbr []bool // by edge ID: neighbor still uncolored
	conflict []bool // by edge ID: same prefix, both alive
	hNbr     []bool // by edge ID: conflict-graph neighbor in V<4

	nbrK1  []uint64 // by edge ID: neighbor's k1 this phase
	nbrLen []uint64 // by edge ID: neighbor's |L| this phase
	nbrPsi []uint64 // by edge ID: neighbor's ψ

	nbrColors []uint64    // cap-deg scratch per node (Linial rounds)
	owned     []int32     // cap-deg per node: owned conflict edge list
	ownedSlot []int32     // cap-deg per node: the owned edges' neighbor slots
	msg       [2][]uint64 // 4 words per edge ID, two round-parity arenas

	listOff []int32  // per-node offsets into lists/cands
	lists   []uint32 // remaining allowed colors, carved per node
	cands   []uint32 // candidate scratch, carved per node
}

// newRunArenas sizes the arenas by the instance's full arc space. That
// trades the engine's per-domain laziness for one allocation per kind
// of state: a multi-domain run holds Θ(instance) arena memory for its
// whole duration instead of Θ(in-flight domains). The trade is
// deliberate — the batched Corollary 1.2 pipeline hands this function
// one color class's induced subgraph at a time (never the whole input
// graph), so the bound stays proportional to a class, and within a
// class the arenas replace tens of per-node allocations per node.
func newRunArenas(inst *graph.Instance, workers int) *runArenas {
	g := inst.G
	csrOff, _ := g.CSR()
	// Pad the carve offsets: insert a 64-element gap (≥ one cache line
	// for every element width in the arenas) wherever the engine's
	// delivery-shard sizing would cut the node range, so the workers'
	// per-node writes land on disjoint lines. The cut positions assume
	// the engine's contiguous i·n/S shard bounds over the whole node
	// range — exact for single-component instances (the million-node
	// tier); multi-component runs still get gaps of the right density.
	// Padding shifts carve offsets only: every per-node slice is the
	// same length at every worker count, so results are unaffected.
	off := csrOff
	if s := congest.DeliveryShards(g.N(), workers); s > 1 {
		const padArcs = 64
		n := g.N()
		off = make([]int32, n+1)
		pads, cut := int32(0), 1
		for v := 0; v <= n; v++ {
			for cut < s && v == cut*n/s {
				pads += padArcs
				cut++
			}
			off[v] = csrOff[v] + pads
		}
	}
	arcs := int(off[g.N()])
	ar := &runArenas{
		off:       off,
		aliveNbr:  make([]bool, arcs),
		conflict:  make([]bool, arcs),
		hNbr:      make([]bool, arcs),
		nbrK1:     make([]uint64, arcs),
		nbrLen:    make([]uint64, arcs),
		nbrPsi:    make([]uint64, arcs),
		nbrColors: make([]uint64, arcs),
		owned:     make([]int32, arcs),
		ownedSlot: make([]int32, arcs),
		listOff:   make([]int32, g.N()+1),
		msg:       [2][]uint64{make([]uint64, 4*arcs), make([]uint64, 4*arcs)},
	}
	for v := 0; v < g.N(); v++ {
		ar.listOff[v+1] = ar.listOff[v] + int32(len(inst.Lists[v]))
	}
	ar.lists = make([]uint32, ar.listOff[g.N()])
	ar.cands = make([]uint32, ar.listOff[g.N()])
	return ar
}

func (ns *nodeState) init(inst *graph.Instance, ar *runArenas) {
	v := ns.ctx.ID()
	// Widen before any arithmetic: 4*lo in the msg-arena carve would
	// wrap int32 from 2^29 arcs on, far inside the layout's 2^31-1 cap.
	// The carve is [off[v], off[v]+deg), not [off[v], off[v+1]): any
	// shard-boundary pad between v and v+1 stays in the gap between the
	// two carves instead of inflating v's apparent degree.
	lo := int(ar.off[v])
	hi := lo + inst.G.Degree(v)
	ns.alive = true
	ns.coloredAt = -1
	ns.aliveNbr = ar.aliveNbr[lo:hi:hi]
	for i := range ns.aliveNbr {
		ns.aliveNbr[i] = true
	}
	ns.conflict = ar.conflict[lo:hi:hi]
	ns.nbrK1 = ar.nbrK1[lo:hi:hi]
	ns.nbrLen = ar.nbrLen[lo:hi:hi]
	ns.nbrPsi = ar.nbrPsi[lo:hi:hi]
	ns.hNbr = ar.hNbr[lo:hi:hi]
	ns.nbrColors = ar.nbrColors[lo:lo:hi]
	ns.ownedIdx = ar.owned[lo:lo:hi]
	ns.ownedSlot = ar.ownedSlot[lo:lo:hi]
	ns.msgArena[0] = ar.msg[0][4*lo : 4*hi : 4*hi]
	ns.msgArena[1] = ar.msg[1][4*lo : 4*hi : 4*hi]
	llo, lhi := int(ar.listOff[v]), int(ar.listOff[v+1])
	ns.list = ar.lists[llo:lhi:lhi]
	copy(ns.list, inst.Lists[v])
	ns.cands = ar.cands[llo:llo:lhi]
	ns.myForms = make([]gf2.Form, 0, ns.p.B)
	if ns.ctx.CheckpointEnabled() {
		ns.blob = make([]byte, 0, blobCap(len(ns.aliveNbr), len(ns.list), inst.C))
	}
}

func (ns *nodeState) run() {
	ns.layTree()
	ns.runLinial()
	ns.loop(0)
}

// layTree stands in for the flooding BFS build, whose outcome the run's
// layout holds: the component's root charges the build's traffic, and
// every node sleeps to the round the build returns in. A singleton's
// build sends nothing and returns in round 0. The first commit comes
// after the build, so every cut's Stats already hold the charge.
//
//go:noinline
func (ns *nodeState) layTree() {
	tl := ns.lay.TreeOf(ns.ctx.ID())
	if ns.rank == 0 {
		b := tl.Build
		ns.ctx.ChargeTraffic(b.Messages, b.Words, b.MaxMessageWords)
	}
	congest.SpinUntil(ns.ctx, tl.Build.Rounds)
}

// loop runs the partial-coloring iterations from startIter (> 0 only on
// a resumed node, whose ψ and list state were restored from a
// checkpoint blob instead of re-running the build and Linial segments).
//
// The loop top is the protocol's commit barrier: every segment between
// two tops (the alive-count aggregation, the ⌈logC⌉ phases, the MIS
// step, the announce round) is the same length for every node of a
// component, so all nodes of a domain reach the top in the same engine
// round, which is exactly what the engine needs to assemble the
// committed blobs plus the queued backlog into a consistent cut.
func (ns *nodeState) loop(startIter int) {
	ns.myForms = ns.p.Fam.OutputFormsInto(ns.psi, ns.p.B, ns.myForms) // ψ is final here
	for iter := startIter; ; iter++ {
		ns.iterationTop(iter)
		if ns.aliveCount() == 0 || ns.opts.MaxIterations > 0 && iter >= ns.opts.MaxIterations {
			ns.commitDone(iter)
			return
		}
		switch {
		case ns.alive:
			ns.partialIteration(iter)
		case ns.hub != nil:
			ns.sleepIteration()
		default:
			// refEval only: its real aggregation waves need colored nodes
			// as tree relays, so they tick through the iteration.
			ns.partialIteration(iter)
		}
	}
}

// iterationTop is the loop top's work before the alive count: the
// injected crash of the resume tests, and the commit of the node's
// state when a checkpointer is attached.
//
//go:noinline
func (ns *nodeState) iterationTop(iter int) {
	if ns.opts.crashIter > 0 && iter+1 == ns.opts.crashIter && ns.ctx.ID() == ns.opts.crashNode {
		fault("core: injected crash at node %d, iteration %d", ns.ctx.ID(), iter)
	}
	if ns.ctx.CheckpointEnabled() {
		ns.ctx.Commit(ns.commitBlob(iter))
	}
}

// Segment lengths, in rounds, of a partial-coloring iteration. Every
// node of a component computes the same values (Height is the whole
// tree's), which is what lets a node sleep through a segment and wake
// in lockstep with the nodes that ran it.

// convergeSpan is one tree aggregation, resynchronization included.
func (ns *nodeState) convergeSpan() int { return 2*ns.lay.TreeOf(ns.ctx.ID()).Height + 6 }

// seedBitsSpan is a phase's seed-bit loop: one aggregation per bit.
func (ns *nodeState) seedBitsSpan() int { return ns.p.D * ns.convergeSpan() }

// phaseSpan is one prefix phase: the (k1, |L|, ψ) exchange round, the
// seed-bit loop, and the prefix-bit round.
func (ns *nodeState) phaseSpan() int { return 1 + ns.seedBitsSpan() + 1 }

// misSpan is the MIS step after the V<4 exchange: Linial on H, then
// one round per color class.
func (p *Params) misSpan() int { return len(p.MISSched) + int(p.MISK) }

// iterationSpan is an iteration's body after the alive count: the
// phases, the V<4 exchange, the MIS step, and the announce round.
func (ns *nodeState) iterationSpan() int {
	return ns.p.LogC*ns.phaseSpan() + 1 + ns.p.misSpan() + 1
}

// sleepIteration is a colored node's iteration on a hub component.
// Such a node has no conflict edges, sends nothing, and is sent
// nothing until the announce round, and the hub folds its zero
// contribution without it; so it sleeps through the whole body in one
// SkipUntil, advancing its aggregation counter past the hub's D·LogC
// aggregations, and wakes to apply the announce round's tagFinal
// messages exactly as finishIteration does.
func (ns *nodeState) sleepIteration() {
	ns.op += uint64(ns.p.LogC * ns.p.D)
	ns.applyFinals(ns.ctx.SkipUntil(ns.ctx.Round() + ns.iterationSpan()))
}

// commitDone records the node's terminal state. The exit conditions
// (component-wide alive total, shared iteration cap) are evaluated
// identically by every node of a component, so a whole domain finishes
// in the same round and its final cut carries only done nodes.
//
//go:noinline
func (ns *nodeState) commitDone(iter int) {
	if ns.ctx.CheckpointEnabled() {
		ns.ctx.CommitFinal(ns.commitBlob(iter))
		ns.blob = nil
	}
}

// runLinial computes ψ: the O(Δ²)-ish input coloring from the
// component-local node ranks in len(LinialSched) = O(log* n) rounds.
func (ns *nodeState) runLinial() {
	ns.psi = ns.rank
	for _, st := range ns.p.LinialSched {
		ns.sendLinial()
		ns.psi = ns.linialStep(st, ns.ctx.Next())
	}
}

// sendLinial sends ψ to every neighbor.
//
//go:noinline
func (ns *nodeState) sendLinial() {
	for i, w := range ns.ctx.Neighbors() {
		ns.ctx.Send(int(w), append(ns.msgBuf(i), tagLinial, ns.psi))
	}
}

// linialStep is one Linial step from ψ: it returns the node's next color
// from its neighbors' colors in the round's messages.
//
//go:noinline
func (ns *nodeState) linialStep(st linial.Step, in []congest.Incoming) uint64 {
	nbrColors := ns.nbrColors[:0]
	for _, m := range in {
		mustTag(m, tagLinial)
		nbrColors = append(nbrColors, m.Payload[1])
	}
	next, err := linial.NextColor(ns.psi, nbrColors, st)
	if err != nil {
		fault("core: Linial step failed at node %d: %v", ns.ctx.ID(), err)
	}
	return next
}

// partialIteration runs one invocation of Lemma 2.1: ⌈logC⌉ derandomized
// prefix phases, then the MIS step, permanently coloring ≥ 1/8 of the
// still-uncolored nodes.
func (ns *nodeState) partialIteration(iter int) {
	ns.startIteration()
	for l := 1; l <= ns.p.LogC; l++ {
		if ns.opts.refEval {
			ns.runPhaseRef(l)
		} else {
			ns.runPhase(l)
		}
	}

	// V<4 membership exchange (1 round).
	inV4 := ns.sendV4()
	ns.takeV4(inV4, ns.ctx.Next())

	// Linial on the conflict graph H (max degree 3) from ψ, then iterate
	// the color classes to build the MIS. Nodes outside V<4 neither send
	// nor receive anywhere in this fixed-length segment (every H-edge has
	// both endpoints in V<4), so they sleep through it in one skip; the
	// segment length is the same for everyone, so lockstep is preserved.
	inMIS := false
	if inV4 {
		inMIS = ns.misStep()
	} else {
		congest.SpinUntil(ns.ctx, ns.ctx.Round()+ns.p.misSpan())
	}
	ns.finishIteration(iter, inMIS)
}

// startIteration resets the conflict graph to the alive residual graph
// (empty prefixes) and the candidates to the list.
//
//go:noinline
func (ns *nodeState) startIteration() {
	aliveDeg := 0
	for i := range ns.conflict {
		ns.conflict[i] = ns.alive && ns.aliveNbr[i]
		if ns.conflict[i] {
			aliveDeg++
		}
	}
	if ns.alive {
		ns.cands = append(ns.cands[:0], ns.list...)
		ns.recordPotential(aliveDeg)
	} else {
		ns.cands = ns.cands[:0]
	}
}

// sendV4 checks that the phases left a single candidate, and sends a
// live node's V<4 membership (conflict degree ≤ 3) to its conflict
// neighbors. It reports the membership.
//
//go:noinline
func (ns *nodeState) sendV4() bool {
	confDeg := 0
	for _, c := range ns.conflict {
		if c {
			confDeg++
		}
	}
	if ns.alive && len(ns.cands) != 1 {
		fault("core: node %d has %d candidates after all phases", ns.ctx.ID(), len(ns.cands))
	}
	inV4 := ns.alive && confDeg <= 3
	if ns.alive {
		for i, w := range ns.ctx.Neighbors() {
			if ns.conflict[i] {
				ns.ctx.Send(int(w), append(ns.msgBuf(i), tagV4, boolWord(inV4)))
			}
		}
	}
	return inV4
}

// takeV4 records the conflict neighbors that share this node's V<4
// membership: the node's edges of H.
//
//go:noinline
func (ns *nodeState) takeV4(inV4 bool, in []congest.Incoming) {
	hNbr := ns.hNbr
	for i := range hNbr {
		hNbr[i] = false
	}
	for _, m := range in {
		mustTag(m, tagV4)
		i := ns.ctx.NeighborIndex(m.From)
		hNbr[i] = inV4 && ns.conflict[i] && m.Payload[1] == 1
	}
}

// misStep is a V<4 node's MIS segment: Linial on H from ψ, then the
// sweep over H's color classes. It reports whether the node joined the
// MIS.
func (ns *nodeState) misStep() bool {
	hColor := ns.psi
	for _, st := range ns.p.MISSched {
		ns.sendHLin(hColor)
		hColor = ns.misLinial(hColor, st, ns.ctx.Next())
	}

	// The sweep spends round start+c on color class c. A node acts only
	// in its own class's round, on the tagMIS messages that reached it
	// before, so it sleeps to that round, joins unless an H-neighbor
	// already did, and sleeps out the sweep.
	if hColor >= ns.p.MISK {
		ns.hColorFault(hColor)
	}
	start := ns.ctx.Round()
	inMIS := ns.misFree(ns.ctx.SkipUntil(start + int(hColor)))
	if inMIS {
		ns.sendMIS()
	}
	for _, in := range ns.ctx.SkipUntil(start + int(ns.p.MISK)) {
		mustTag(in, tagMIS)
	}
	return inMIS
}

// hColorFault reports an H-color outside the MIS sweep's classes.
//
//go:noinline
func (ns *nodeState) hColorFault(hColor uint64) {
	fault("core: node %d has H-color %d outside the MIS sweep's %d classes", ns.ctx.ID(), hColor, ns.p.MISK)
}

// sendHLin sends this node's H-color to its H-neighbors.
//
//go:noinline
func (ns *nodeState) sendHLin(hColor uint64) {
	for i, w := range ns.ctx.Neighbors() {
		if ns.hNbr[i] {
			ns.ctx.Send(int(w), append(ns.msgBuf(i), tagHLin, hColor))
		}
	}
}

// misLinial is one Linial step on H: it returns this node's next H-color
// from its H-neighbors' colors in the round's messages.
//
//go:noinline
func (ns *nodeState) misLinial(hColor uint64, st linial.Step, in []congest.Incoming) uint64 {
	nbrColors := ns.nbrColors[:0]
	for _, m := range in {
		mustTag(m, tagHLin)
		if ns.hNbr[ns.ctx.NeighborIndex(m.From)] {
			nbrColors = append(nbrColors, m.Payload[1])
		}
	}
	next, err := linial.NextColor(hColor, nbrColors, st)
	if err != nil {
		fault("core: MIS Linial failed at node %d: %v", ns.ctx.ID(), err)
	}
	return next
}

// misFree reports whether no H-neighbor joined the MIS in the messages
// that reached this node before its color class's round.
//
//go:noinline
func (ns *nodeState) misFree(in []congest.Incoming) bool {
	free := true
	for _, m := range in {
		mustTag(m, tagMIS)
		if ns.hNbr[ns.ctx.NeighborIndex(m.From)] {
			free = false
		}
	}
	return free
}

// sendMIS announces this node's MIS membership to its H-neighbors.
//
//go:noinline
func (ns *nodeState) sendMIS() {
	for i, w := range ns.ctx.Neighbors() {
		if ns.hNbr[i] {
			ns.ctx.Send(int(w), misMsg)
		}
	}
}

// misMsg is every tagMIS payload. A receiver reads it when it wakes for
// its own color class, up to MISK rounds after the send, when the
// sender's msgArena buffer may already carry a later message; so the
// payload is one shared slice that nothing ever writes.
var misMsg = congest.Message{tagMIS}

// finishIteration is the iteration's final announce round: MIS nodes
// keep their candidate color permanently and announce it; everyone
// prunes announced colors and neighbor liveness.
func (ns *nodeState) finishIteration(iter int, inMIS bool) {
	if inMIS {
		ns.announce(iter)
	}
	ns.applyFinals(ns.ctx.Next())
}

// announce keeps an MIS node's candidate color permanently and sends it
// to every neighbor.
//
//go:noinline
func (ns *nodeState) announce(iter int) {
	ns.color = ns.cands[0]
	ns.colored = true
	ns.alive = false
	ns.coloredAt = iter
	for i, w := range ns.ctx.Neighbors() {
		ns.ctx.Send(int(w), append(ns.msgBuf(i), tagFinal, uint64(ns.color)))
	}
}

// applyFinals prunes the announce round's newly colored neighbors: they
// are no longer alive, and their colors leave a live node's list.
//
//go:noinline
func (ns *nodeState) applyFinals(in []congest.Incoming) {
	for _, m := range in {
		mustTag(m, tagFinal)
		ns.aliveNbr[ns.ctx.NeighborIndex(m.From)] = false
		if ns.alive {
			ns.list = graph.RemoveColor(ns.list, uint32(m.Payload[1]))
		}
	}
}

// runPhase fixes the ℓ-th prefix bit of every node deterministically
// (Lemma 2.6): exchange (k1, |L|, ψ) with conflict neighbors, then fix
// the D seed bits one by one — each by one tree aggregation of the two
// conditional expectations, which the component's phase hub runs
// centrally (runPhaseBulk) — and finally extend prefixes and prune the
// conflict graph.
//
// This is the derandomization hot path, restructured for the steady
// state: the coin forms are built once per run (only thresholds change
// per phase), their residuals live once in the hub's incrementally
// folded lane table, and every buffer (payloads, table, aggregation
// vector) is reused. runPhaseRef keeps the pre-optimization evaluation
// path; the two must produce bit-identical seeds, potentials, and
// traffic.
func (ns *nodeState) runPhase(l int) {
	bitPos := ns.p.LogC - l
	ns.sendPhase(bitPos)
	ns.bindPhase(ns.ctx.Next())
	ns.finishPhase(bitPos, ns.runPhaseBulk())
}

// sendPhase counts a live node's candidates by their bitPos bit into
// phK1 and phK0 (zero at a colored node), and sends (k1, |L|, ψ) to its
// conflict neighbors.
//
//go:noinline
func (ns *nodeState) sendPhase(bitPos int) {
	ns.phK1, ns.phK0 = 0, 0
	if !ns.alive {
		return
	}
	ns.phK1 = countBitOnes(ns.cands, bitPos)
	ns.phK0 = len(ns.cands) - ns.phK1
	for i, w := range ns.ctx.Neighbors() {
		if ns.conflict[i] {
			ns.ctx.Send(int(w), append(ns.msgBuf(i), tagPhase, uint64(ns.phK1), uint64(len(ns.cands)), ns.psi))
		}
	}
}

// takePhase records the conflict neighbors' (k1, |L|, ψ) from the
// exchange round's messages.
func (ns *nodeState) takePhase(in []congest.Incoming) {
	for _, m := range in {
		mustTag(m, tagPhase)
		i := ns.ctx.NeighborIndex(m.From)
		ns.nbrK1[i], ns.nbrLen[i], ns.nbrPsi[i] = m.Payload[1], m.Payload[2], m.Payload[3]
	}
}

// bindPhase stores the seed-bit loop's inputs after the exchange round:
// the neighbors' payloads, this node's coin bound to the phase's
// threshold, and its owned conflict edges.
//
//go:noinline
func (ns *nodeState) bindPhase(in []congest.Incoming) {
	ns.takePhase(in)

	// Bind this node's forms to this phase's threshold. Each conflict
	// neighbor binds its own from the (ψ, k1, |L|) it sent, so the hub
	// reads a neighbor's coin from the neighbor's slot.
	ns.phMyCoin = gf2.Coin{}
	if ns.alive {
		var err error
		ns.phMyCoin, err = gf2.NewCoinFromForms(ns.myForms, uint64(ns.phK1), uint64(len(ns.cands)))
		if err != nil {
			fault("core: node %d coin: %v", ns.ctx.ID(), err)
		}
	}

	// Owned conflict edges (each edge is owned by its smaller endpoint)
	// and their neighbors' hub slots; the conflict set is fixed for the
	// whole phase, so the seed-bit loop iterates this list instead of
	// rescanning the full neighbor set D times. A conflict neighbor with
	// a smaller ID owns the shared edge and reads this node's marginal.
	ns.ownedIdx = ns.ownedIdx[:0]
	ns.ownedSlot = ns.ownedSlot[:0]
	ns.margRead = false
	if ns.alive {
		for i, w := range ns.ctx.Neighbors() {
			switch {
			case !ns.conflict[i]:
			case int(w) > ns.ctx.ID():
				ns.ownedIdx = append(ns.ownedIdx, int32(i))
				ns.ownedSlot = append(ns.ownedSlot, int32(ns.rankOf[w]))
			default:
				ns.margRead = true
			}
		}
	}
}

// finishPhase extends prefixes and prunes the conflict graph (1 round);
// shared tail of runPhase and runPhaseRef, which leave this node's coin
// in phMyCoin.
func (ns *nodeState) finishPhase(bitPos int, seed gf2.Vec128) {
	myBit := ns.sendBit(bitPos, seed)
	ns.takeBits(myBit, ns.ctx.Next())
}

// sendBit evaluates a live node's coin on the phase's seed, keeps the
// candidates whose bitPos bit matches it, and sends it to the conflict
// neighbors. It returns the bit (false at a colored node).
//
//go:noinline
func (ns *nodeState) sendBit(bitPos int, seed gf2.Vec128) bool {
	if !ns.alive {
		return false
	}
	myBit := ns.keepCands(bitPos, seed)
	for i, w := range ns.ctx.Neighbors() {
		if ns.conflict[i] {
			ns.ctx.Send(int(w), append(ns.msgBuf(i), tagBit, boolWord(myBit)))
		}
	}
	return myBit
}

// keepCands evaluates this node's coin on the phase's seed and keeps
// the candidates whose bitPos bit matches it; it returns the bit.
//
//go:noinline
func (ns *nodeState) keepCands(bitPos int, seed gf2.Vec128) bool {
	myBit := ns.phMyCoin.Value(seed)
	ns.cands = filterByBit(ns.cands, bitPos, myBit)
	if len(ns.cands) == 0 {
		fault("core: node %d candidate list became empty", ns.ctx.ID())
	}
	return myBit
}

// takeBits keeps the conflict edges whose endpoints chose the same bit,
// and records the node's potential over the remaining conflict degree.
//
//go:noinline
func (ns *nodeState) takeBits(myBit bool, in []congest.Incoming) {
	confDeg := 0
	for _, m := range in {
		mustTag(m, tagBit)
		i := ns.ctx.NeighborIndex(m.From)
		if ns.conflict[i] {
			ns.conflict[i] = ns.alive && (m.Payload[1] == 1) == myBit
			if ns.conflict[i] {
				confDeg++
			}
		}
	}
	if ns.alive {
		ns.recordPotential(confDeg)
	}
}

// recordPotential appends this node's weighted potential
// deg/|L| to its record, with TrackPotentials.
func (ns *nodeState) recordPotential(deg int) {
	if ns.opts.TrackPotentials {
		ns.pots = append(ns.pots, float64(ns.weight)*float64(deg)/float64(len(ns.cands)))
	}
}

// runPhaseRef is the pre-optimization phase evaluation, kept as the
// differential reference for the hot path: per-phase coin construction
// through Family.OutputForms, a fresh basis whose fixed bits are stored
// as ordinary echelon rows cloned and re-reduced per β branch, and
// allocating sends. TestPhasePotentialsMatchReference pins that runPhase
// reproduces its seeds, potentials, stats, and colors bit for bit.
func (ns *nodeState) runPhaseRef(l int) {
	deg := ns.ctx.Degree()
	bitPos := ns.p.LogC - l
	var k1, k0 int
	if ns.alive {
		k1 = countBitOnes(ns.cands, bitPos)
		k0 = len(ns.cands) - k1
		for i, w := range ns.ctx.Neighbors() {
			if ns.conflict[i] {
				ns.ctx.Send(int(w), congest.Message{tagPhase, uint64(k1), uint64(len(ns.cands)), ns.psi})
			}
		}
	}
	ns.takePhase(ns.ctx.Next())

	// Build this node's coin and its conflict neighbors' coins afresh.
	var myCoin gf2.Coin
	coins := make([]gf2.Coin, deg)
	if ns.alive {
		var err error
		myCoin, err = gf2.NewCoin(ns.p.Fam, ns.psi, ns.p.B, uint64(k1), uint64(len(ns.cands)))
		if err != nil {
			panic(fmt.Sprintf("core: node %d coin: %v", ns.ctx.ID(), err))
		}
		for i := 0; i < deg; i++ {
			if !ns.conflict[i] {
				continue
			}
			coins[i], err = gf2.NewCoin(ns.p.Fam, ns.nbrPsi[i], ns.p.B, ns.nbrK1[i], ns.nbrLen[i])
			if err != nil {
				panic(fmt.Sprintf("core: node %d neighbor coin: %v", ns.ctx.ID(), err))
			}
		}
	}

	basis := gf2.NewBasis()
	var seed gf2.Vec128
	for j := 0; j < ns.p.D; j++ {
		var x0, x1 float64
		if ns.alive {
			for i, w := range ns.ctx.Neighbors() {
				if !ns.conflict[i] || int(w) < ns.ctx.ID() {
					continue
				}
				for _, beta := range []bool{false, true} {
					bs2 := basis.Clone()
					if !bs2.FixBit(j, beta) {
						panic("core: seed bit re-fix inconsistent")
					}
					e := EdgeExpectation(bs2, myCoin, coins[i],
						k1, k0, int(ns.nbrK1[i]), int(ns.nbrLen[i])-int(ns.nbrK1[i]))
					if beta {
						x1 += e
					} else {
						x0 += e
					}
				}
			}
		}
		totals := ns.converge(x0, x1)
		rj := totals[1] < totals[0]
		if !basis.FixBit(j, rj) {
			panic("core: chosen seed bit inconsistent")
		}
		seed = seed.WithBit(j, rj)
	}

	ns.phMyCoin = myCoin
	ns.finishPhase(bitPos, seed)
}

// aliveCount returns the component's alive count at the top of an
// iteration: one aggregation of every node's alive bit, which the hub
// tallies (countAlive) and refEval runs as a real wave.
func (ns *nodeState) aliveCount() int64 {
	if ns.hub != nil {
		return ns.hub.countAlive(ns)
	}
	alive := 0.0
	if ns.alive {
		alive = 1
	}
	return int64(ns.converge(alive, 0)[0])
}

// converge aggregates the pair (x0, x1) over all nodes via the BFS tree
// and returns the totals to every node, then resynchronizes the global
// round so that fixed-length segments may follow. Only refEval's
// nodes, which hold the tree, run it.
func (ns *nodeState) converge(x0, x1 float64) [2]float64 {
	start := ns.ctx.Round()
	ns.op++
	// Lockstep contract: every converge starts right after the previous
	// one's SpinUntil (or layTree's), so the
	// skip-scheduled aggregation applies — nodes sleep through the wave
	// instead of ticking every round.
	vec := [2]float64{x0, x1} // does not escape: the aggregation copies it
	res := congest.ConvergeSumLockstepTo(ns.ctx, ns.ref, ns.op, vec[:], start+ns.convergeSpan())
	// Copy before returning: the result buffer lives on the tree.
	return [2]float64{res[0], res[1]}
}

func mustTag(in congest.Incoming, want uint64) {
	if in.Payload[0] != want {
		tagFault(in.Payload[0], want, in.From)
	}
}

// tagFault reports a message of an unexpected tag; out of line, so
// mustTag inlines small.
//
//go:noinline
func tagFault(tag, want uint64, from int) {
	fault("core: unexpected tag %d (want %d) from node %d", tag, want, from)
}

// fault panics with a protocol diagnostic. It is kept out of line so
// that the formatting's frame is not part of any node program's frame
// (see coloringRun.program).
//
//go:noinline
func fault(format string, args ...any) {
	panic(fmt.Sprintf(format, args...))
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
