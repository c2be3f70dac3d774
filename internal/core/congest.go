package core

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"

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

// metrics collects measurement-only data outside the protocol.
// Potential contributions are stored per node and summed in node order
// at collection: a shared accumulator would add them in goroutine
// completion order, making the reported float sums depend on
// scheduling. Per-node storage keeps the telemetry bit-deterministic
// across runs and worker counts (the differential tests compare it
// bitwise).
//
// The accumulators are striped over contiguous node bands of 2^12
// nodes: node goroutines running on different engine delivery shards
// lock different stripes, so telemetry writes never serialize the
// parallel phase loop on one mutex. Folding iterates the stripes in
// order and each band's nodes ascending — exactly the ascending-node-
// order float sum the single accumulator produced, so the reported
// telemetry stays bit-identical across worker counts.
const metricStripeShift = 12

type metricStripe struct {
	mu       sync.Mutex
	potStart map[int][]float64         // iteration → band-local per-node Φ₀
	potPhase map[int]map[int][]float64 // iteration → phase → band-local Φ_ℓ
	colored  map[int]int
	alive    map[int]int
	_        [4]uint64 // no two stripes' hot words on one cache line
}

type metrics struct {
	n       int
	track   bool
	stripes []metricStripe
}

func newMetrics(track bool, n int) *metrics {
	m := &metrics{n: n, track: track,
		stripes: make([]metricStripe, (n>>metricStripeShift)+1)}
	for i := range m.stripes {
		s := &m.stripes[i]
		s.potStart = map[int][]float64{}
		s.potPhase = map[int]map[int][]float64{}
		s.colored = map[int]int{}
		s.alive = map[int]int{}
	}
	return m
}

// stripe returns node's accumulator band.
func (m *metrics) stripe(node int) *metricStripe {
	return &m.stripes[node>>metricStripeShift]
}

// bandWidth is the node count of stripe si (the last band is short).
func (m *metrics) bandWidth(si int) int {
	w := m.n - si<<metricStripeShift
	if w > 1<<metricStripeShift {
		w = 1 << metricStripeShift
	}
	return w
}

func (m *metrics) addPotStart(iter, node int, phi float64) {
	if !m.track {
		return
	}
	s := m.stripe(node)
	s.mu.Lock()
	if s.potStart[iter] == nil {
		s.potStart[iter] = make([]float64, m.bandWidth(node>>metricStripeShift))
	}
	s.potStart[iter][node&(1<<metricStripeShift-1)] = phi
	s.mu.Unlock()
}

func (m *metrics) addPotPhase(iter, phase, node int, phi float64) {
	if !m.track {
		return
	}
	s := m.stripe(node)
	s.mu.Lock()
	if s.potPhase[iter] == nil {
		s.potPhase[iter] = map[int][]float64{}
	}
	if s.potPhase[iter][phase] == nil {
		s.potPhase[iter][phase] = make([]float64, m.bandWidth(node>>metricStripeShift))
	}
	s.potPhase[iter][phase][node&(1<<metricStripeShift-1)] = phi
	s.mu.Unlock()
}

// sumNodeOrder folds per-node contributions into the running total in
// ascending node order. Callers folding striped storage thread one
// accumulator through every band so the additions happen in exactly
// the order a single n-length slice would produce.
func sumNodeOrder(total float64, vals []float64) float64 {
	for _, v := range vals {
		total += v
	}
	return total
}

func (m *metrics) addColored(iter, node, weight int) {
	s := m.stripe(node)
	s.mu.Lock()
	s.colored[iter] += weight
	s.mu.Unlock()
}

func (m *metrics) addAlive(iter, node, weight int) {
	s := m.stripe(node)
	s.mu.Lock()
	s.alive[iter] += weight
	s.mu.Unlock()
}

// The collection accessors run only after the engine run has completed
// (or before it starts, for restored-run prefills), so they read the
// stripes unlocked, like the single-accumulator reads they replace.

// aliveTotal sums the stripes' alive counts for one iteration; ok
// reports whether any node recorded the iteration at all.
func (m *metrics) aliveTotal(iter int) (total int, ok bool) {
	for i := range m.stripes {
		if a, has := m.stripes[i].alive[iter]; has {
			total += a
			ok = true
		}
	}
	return total, ok
}

func (m *metrics) coloredTotal(iter int) int {
	total := 0
	for i := range m.stripes {
		total += m.stripes[i].colored[iter]
	}
	return total
}

// potStartSum folds iteration iter's Φ₀ contributions: one running
// accumulator over stripes in order, nodes ascending within each — the
// exact ascending-node-order sum of the unstriped slice (absent bands
// skip the same +0 terms their zero entries added, which never changes
// a finite partial sum starting at +0).
func (m *metrics) potStartSum(iter int) float64 {
	total := 0.0
	for i := range m.stripes {
		total = sumNodeOrder(total, m.stripes[i].potStart[iter])
	}
	return total
}

func (m *metrics) potPhaseSum(iter, phase int) float64 {
	total := 0.0
	for i := range m.stripes {
		total = sumNodeOrder(total, m.stripes[i].potPhase[iter][phase])
	}
	return total
}

// dropIter releases a folded iteration's per-node contribution slices.
func (m *metrics) dropIter(iter int) {
	for i := range m.stripes {
		delete(m.stripes[i].potStart, iter)
		delete(m.stripes[i].potPhase, iter)
	}
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
// run from decoded per-node checkpoint state (see checkpoint.go);
// restored runs are incompatible with telemetry weighting.
func runColoringDomains(inst *graph.Instance, opts Options, p *Params, weights []int, comps [][]int, ckr *ckRun) (*Result, []congest.DomainStats, error) {
	// Per-component BFS roots (the smallest member), component-local
	// ranks, and component parameter sets. Every node can derive all
	// three locally in O(D) rounds by a leader-election flood plus local
	// aggregates, so handing them to the programs charges no rounds. The
	// rank seeds the Linial input coloring (ranks are distinct within a
	// component, which is all Linial needs).
	if comps == nil {
		comps = inst.G.ConnectedComponents()
	}
	roots := make([]int32, inst.G.N())
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
			roots[v] = int32(comp[0])
			ranks[v] = uint64(i)
			params[v] = cp
		}
	}

	// One phase hub per component: the bulk seed-bit aggregation seam
	// (bulk.go), fanned out over as many work bands as the engine would
	// cut delivery shards for the component alone. opts.refEval builds
	// none: its phases run runPhaseRef's real aggregation waves, which
	// the differential tests pin the hub against.
	var hubs map[int]*phaseHub
	if !opts.refEval {
		hubs = make(map[int]*phaseHub, len(comps))
		for _, comp := range comps {
			bands := congest.DeliveryShards(len(comp), opts.Workers)
			hubs[comp[0]] = newPhaseHub(len(comp), params[comp[0]], bands)
		}
	}

	m := newMetrics(opts.TrackPotentials, inst.G.N())
	colors := make([]uint32, inst.G.N())
	coloredFlag := make([]bool, inst.G.N())
	ar := newRunArenas(inst, opts.Workers)
	var mu sync.Mutex

	cfg := congest.Config{MaxWords: opts.MaxWords, MaxRounds: opts.MaxRounds, Workers: opts.Workers}
	var restore []*nodeRestore
	if ckr != nil {
		cfg.Checkpoint = ckr.ck
		cfg.Resume = ckr.snap
		restore = ckr.restore
		if restore != nil {
			if weights != nil {
				return nil, nil, fmt.Errorf("core: cannot resume a telemetry-weighted run")
			}
			// Nodes already done in the snapshot never rerun; restored
			// nodes replay their past iterations into the metrics, and
			// done nodes contribute their recorded colors directly.
			prefillRestored(m, colors, coloredFlag, restore)
		}
	}
	stats, domStats, err := congest.RunWithDomains(inst.G, cfg, func(ctx *congest.Ctx) {
		w := 1
		if weights != nil {
			w = weights[ctx.ID()]
		}
		ns := &nodeState{ctx: ctx, p: params[ctx.ID()], opts: opts, m: m,
			root: int(roots[ctx.ID()]), rank: ranks[ctx.ID()], weight: w}
		if hubs != nil {
			// Register once, at node start: the hub's fold schedule needs
			// every slot's tree, including the colored nodes that sleep
			// through whole iterations and never enter a phase again.
			ns.hub = hubs[ns.root]
			ns.rankOf = ranks
			ns.hub.slots[ns.rank].ns = ns
		}
		ns.init(inst, ar)
		if restore != nil && restore[ctx.ID()] != nil {
			rs := restore[ctx.ID()]
			ns.applyRestore(rs)
			ns.loop(rs.iter)
		} else {
			ns.run()
		}
		mu.Lock()
		colors[ctx.ID()] = ns.color
		coloredFlag[ctx.ID()] = ns.colored
		mu.Unlock()
	})
	if err != nil {
		return nil, nil, err
	}

	res := &Result{Colors: colors, Stats: *stats, Params: p, Done: true}
	for _, ok := range coloredFlag {
		if !ok {
			res.Done = false
			break
		}
	}
	for iter := 0; ; iter++ {
		a, ok := m.aliveTotal(iter)
		if !ok {
			break
		}
		res.Iterations++
		res.AliveAt = append(res.AliveAt, a)
		res.Colored = append(res.Colored, m.coloredTotal(iter))
		if opts.TrackPotentials {
			res.PotentialStart = append(res.PotentialStart, m.potStartSum(iter))
			phases := make([]float64, p.LogC)
			for l := 1; l <= p.LogC; l++ {
				phases[l-1] = m.potPhaseSum(iter, l)
			}
			res.PotentialPhase = append(res.PotentialPhase, phases)
			// Folded: release the per-node contribution slices so tracked
			// runs hold at most the iterations not yet collected.
			m.dropIter(iter)
		}
	}
	if res.Done && weights == nil {
		if err := inst.VerifyColoring(colors); err != nil {
			return nil, nil, fmt.Errorf("core: produced coloring failed verification: %w", err)
		}
	}
	return res, domStats, nil
}

// nodeState is the per-node protocol state.
type nodeState struct {
	ctx    *congest.Ctx
	p      *Params
	opts   Options
	m      *metrics
	root   int    // BFS root of this node's connected component
	rank   uint64 // rank within the component (sorted order); seeds Linial
	weight int    // telemetry multiplier: how many identical components this node's component stands for

	tree *congest.Tree
	op   uint64

	// compAlive is the component's alive count at the top of the current
	// iteration (the alive-count converge's total): the number of nodes
	// that enter each of the iteration's hub phases.
	compAlive int64

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
	nbrCoins  []gf2.Coin
	hNbr      []bool
	nbrColors []uint64

	// Derandomization hot-path caches. The coin *forms* of a node depend
	// only on (ψ, B), both fixed for the whole run once Linial finishes,
	// so each node materializes its own and every conflict neighbor's
	// hash-output forms once and reuses them every phase — only the coin
	// thresholds change per phase. The caches are keyed by the ψ value
	// actually used, so a changed ψ would rebuild rather than miscompute.
	myForms     []gf2.Form
	myFormsPsi  uint64
	myFormsOK   bool
	nbrForms    [][]gf2.Form
	nbrFormsPsi []uint64
	nbrFormsOK  []bool

	convVec  [2]float64 // reused aggregation input vector
	ownedIdx []int32    // neighbor indexes of owned conflict edges (rebuilt per phase)
	margRead bool       // some conflict neighbor owns an edge into this node (this phase)

	// Bulk-aggregation seam (bulk.go): the component's phase hub and the
	// shared node→rank table its fold schedule is built from. nil/unset
	// with opts.refEval, whose phases run real aggregation waves.
	hub    *phaseHub
	rankOf []uint64

	// Phase-scoped inputs of the seed-bit loop, stored so the hub can
	// evaluate this node's edges centrally: this node's bit-split counts
	// and bound coin (runPhase prologue).
	phK1, phK0 int
	phMyCoin   gf2.Coin

	// Bit-sliced residual sheets over the owned conflict edges
	// (gf2.FormSheet): each sheet packs this node's coin forms plus as
	// many neighbor coins as fit its 64 lanes, is folded incrementally
	// as seed bits are chosen, and feeds the block kernels. Rebuilt per
	// phase (the storage is reused); sheetOK gates the batched path —
	// when false (D > 64, whose forms carry high-word masks) the hub
	// evaluates the node's edges with the scalar kernel one by one.
	sheets  []*gf2.FormSheet
	sheetN  int
	sheetOK bool
	ownBlk  gf2.BlockCoin // this node's coin: the same lanes on every sheet
	edgeBlk []edgeBlock   // per owned edge: sheet index and neighbor lanes

	// msgArena holds the reusable outgoing payload buffers, 4 words (the
	// bandwidth cap) per neighbor, two arenas alternating by round
	// parity: a payload written in round r is read by its receiver
	// during round r+1 — possibly while the sender is already writing
	// its round-r+1 messages — so consecutive rounds must not share
	// buffers. With two arenas a buffer is rewritten no earlier than
	// round r+2, by when the engine's barrier ordering guarantees the
	// round-r+1 read has happened-before the write.
	//
	// So an arena payload must be read in the round after it was sent.
	// A message its receiver may read later — one that arrives while
	// the receiver sleeps in SkipUntil, like tagMIS during the MIS
	// sweep — must not come from the arena: send a shared immutable
	// payload (misMsg) instead.
	msgArena [2][]uint64
}

// edgeBlock locates one owned conflict edge's neighbor coin on this
// node's residual sheets. mv is the neighbor's slot in the hub's
// per-bit marginal table.
type edgeBlock struct {
	sheet int32
	mv    int32
	cv    gf2.BlockCoin
}

// msgBuf returns the empty reusable payload buffer for neighbor index i
// in the current round (append up to 4 words, then Send).
func (ns *nodeState) msgBuf(i int) congest.Message {
	a := ns.msgArena[ns.ctx.Round()&1]
	return a[4*i : 4*i : 4*i+4]
}

// ownForms returns this node's cached hash-output forms for ψ.
func (ns *nodeState) ownForms() []gf2.Form {
	if !ns.myFormsOK || ns.myFormsPsi != ns.psi {
		ns.myForms = ns.p.Fam.OutputFormsInto(ns.psi, ns.p.B, ns.myForms)
		ns.myFormsPsi, ns.myFormsOK = ns.psi, true
	}
	return ns.myForms
}

// neighborForms returns the cached hash-output forms of neighbor index i
// with input color psi.
func (ns *nodeState) neighborForms(i int, psi uint64) []gf2.Form {
	if !ns.nbrFormsOK[i] || ns.nbrFormsPsi[i] != psi {
		ns.nbrForms[i] = ns.p.Fam.OutputFormsInto(psi, ns.p.B, ns.nbrForms[i])
		ns.nbrFormsPsi[i], ns.nbrFormsOK[i] = psi, true
	}
	return ns.nbrForms[i]
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
	formsOK  []bool // by edge ID: neighbor forms cache valid

	nbrK1    []uint64 // by edge ID: neighbor's k1 this phase
	nbrLen   []uint64 // by edge ID: neighbor's |L| this phase
	nbrPsi   []uint64 // by edge ID: neighbor's ψ
	formsPsi []uint64 // by edge ID: ψ the forms cache was built for

	coins     []gf2.Coin   // by edge ID: neighbor coin scratch
	forms     [][]gf2.Form // by edge ID: cached neighbor output forms
	nbrColors []uint64     // cap-deg scratch per node (Linial rounds)
	owned     []int32      // cap-deg per node: owned conflict edge list
	msg       [2][]uint64  // 4 words per edge ID, two round-parity arenas

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
		formsOK:   make([]bool, arcs),
		nbrK1:     make([]uint64, arcs),
		nbrLen:    make([]uint64, arcs),
		nbrPsi:    make([]uint64, arcs),
		formsPsi:  make([]uint64, arcs),
		coins:     make([]gf2.Coin, arcs),
		forms:     make([][]gf2.Form, arcs),
		nbrColors: make([]uint64, arcs),
		owned:     make([]int32, arcs),
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
	ns.nbrCoins = ar.coins[lo:hi:hi]
	ns.hNbr = ar.hNbr[lo:hi:hi]
	ns.nbrColors = ar.nbrColors[lo:lo:hi]
	ns.nbrForms = ar.forms[lo:hi:hi]
	ns.nbrFormsPsi = ar.formsPsi[lo:hi:hi]
	ns.nbrFormsOK = ar.formsOK[lo:hi:hi]
	ns.ownedIdx = ar.owned[lo:lo:hi]
	ns.msgArena[0] = ar.msg[0][4*lo : 4*hi : 4*hi]
	ns.msgArena[1] = ar.msg[1][4*lo : 4*hi : 4*hi]
	llo, lhi := int(ar.listOff[v]), int(ar.listOff[v+1])
	ns.list = ar.lists[llo:lhi:lhi]
	copy(ns.list, inst.Lists[v])
	ns.cands = ar.cands[llo:llo:lhi]
}

func (ns *nodeState) run() {
	ns.tree = congest.BuildBFSTree(ns.ctx, ns.root)
	ns.runLinial()
	ns.loop(0)
}

// loop runs the partial-coloring iterations from startIter (> 0 only on
// a resumed node, whose tree, ψ, and list state were restored from a
// checkpoint blob instead of re-running the build and Linial segments).
//
// The loop top is the protocol's commit barrier: every segment between
// two tops (the alive-count aggregation, the ⌈logC⌉ phases, the MIS
// step, the announce round) is the same length for every node of a
// component, so all nodes of a domain reach the top in the same engine
// round, which is exactly what the engine needs to assemble the
// committed blobs plus the queued backlog into a consistent cut.
func (ns *nodeState) loop(startIter int) {
	maxIter := ns.opts.MaxIterations
	for iter := startIter; ; iter++ {
		if ns.opts.crashIter > 0 && iter+1 == ns.opts.crashIter && ns.ctx.ID() == ns.opts.crashNode {
			panic(fmt.Sprintf("core: injected crash at node %d, iteration %d", ns.ctx.ID(), iter))
		}
		if ns.ctx.CheckpointEnabled() {
			ns.ctx.Commit(ns.commitBlob(iter))
		}
		aliveVal := 0.0
		if ns.alive {
			aliveVal = 1
		}
		totals := ns.converge(aliveVal, 0)
		if totals[0] == 0 {
			ns.commitDone(iter)
			return
		}
		if maxIter > 0 && iter >= maxIter {
			ns.commitDone(iter)
			return
		}
		ns.compAlive = int64(totals[0])
		switch {
		case ns.alive:
			ns.m.addAlive(iter, ns.ctx.ID(), ns.weight)
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

// Segment lengths, in rounds, of a partial-coloring iteration. Every
// node of a component computes the same values (Height is the whole
// tree's), which is what lets a node sleep through a segment and wake
// in lockstep with the nodes that ran it.

// convergeSpan is one tree aggregation, resynchronization included.
func (ns *nodeState) convergeSpan() int { return 2*ns.tree.Height + 6 }

// seedBitsSpan is a phase's seed-bit loop: one aggregation per bit.
func (ns *nodeState) seedBitsSpan() int { return ns.p.D * ns.convergeSpan() }

// phaseSpan is one prefix phase: the (k1, |L|, ψ) exchange round, the
// seed-bit loop, and the prefix-bit round.
func (ns *nodeState) phaseSpan() int { return 1 + ns.seedBitsSpan() + 1 }

// misSpan is the MIS step after the V<4 exchange: Linial on H, then
// one round per color class.
func (p *Params) misSpan() int { return len(p.MISSched) + int(p.MISK) }

// iterationSpan is an iteration's body after the alive-count converge:
// the phases, the V<4 exchange, the MIS step, and the announce round.
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
func (ns *nodeState) commitDone(iter int) {
	if ns.ctx.CheckpointEnabled() {
		ns.ctx.CommitFinal(ns.commitBlob(iter))
	}
}

// runLinial computes ψ: the O(Δ²)-ish input coloring from the
// component-local node ranks in len(LinialSched) = O(log* n) rounds.
func (ns *nodeState) runLinial() {
	ns.psi = ns.rank
	for _, st := range ns.p.LinialSched {
		for i, w := range ns.ctx.Neighbors() {
			ns.ctx.Send(int(w), append(ns.msgBuf(i), tagLinial, ns.psi))
		}
		nbrColors := ns.nbrColors[:0]
		for _, in := range ns.ctx.Next() {
			mustTag(in, tagLinial)
			nbrColors = append(nbrColors, in.Payload[1])
		}
		next, err := linial.NextColor(ns.psi, nbrColors, st)
		if err != nil {
			panic(fmt.Sprintf("core: Linial step failed at node %d: %v", ns.ctx.ID(), err))
		}
		ns.psi = next
	}
}

// partialIteration runs one invocation of Lemma 2.1: ⌈logC⌉ derandomized
// prefix phases, then the MIS step, permanently coloring ≥ 1/8 of the
// still-uncolored nodes.
func (ns *nodeState) partialIteration(iter int) {
	deg := ns.ctx.Degree()
	// Conflict graph starts as the alive residual graph (empty prefixes).
	aliveDeg := 0
	for i := 0; i < deg; i++ {
		ns.conflict[i] = ns.alive && ns.aliveNbr[i]
		if ns.conflict[i] {
			aliveDeg++
		}
	}
	if ns.alive {
		ns.cands = append(ns.cands[:0], ns.list...)
		ns.m.addPotStart(iter, ns.ctx.ID(), float64(ns.weight)*float64(aliveDeg)/float64(len(ns.cands)))
	} else {
		ns.cands = ns.cands[:0]
	}

	for l := 1; l <= ns.p.LogC; l++ {
		if ns.opts.refEval {
			ns.runPhaseRef(iter, l)
		} else {
			ns.runPhase(iter, l)
		}
	}

	// All bits fixed: the single candidate color and the conflict degree.
	confDeg := 0
	for i := 0; i < deg; i++ {
		if ns.conflict[i] {
			confDeg++
		}
	}
	if ns.alive && len(ns.cands) != 1 {
		panic(fmt.Sprintf("core: node %d has %d candidates after all phases", ns.ctx.ID(), len(ns.cands)))
	}

	// V<4 membership exchange (1 round).
	inV4 := ns.alive && confDeg <= 3
	hNbr := ns.hNbr
	for i := range hNbr {
		hNbr[i] = false
	}
	if ns.alive {
		for i, w := range ns.ctx.Neighbors() {
			if ns.conflict[i] {
				ns.ctx.Send(int(w), append(ns.msgBuf(i), tagV4, boolWord(inV4)))
			}
		}
	}
	for _, in := range ns.ctx.Next() {
		mustTag(in, tagV4)
		i := ns.ctx.NeighborIndex(in.From)
		hNbr[i] = inV4 && ns.conflict[i] && in.Payload[1] == 1
	}

	// Linial on the conflict graph H (max degree 3) from ψ, then iterate
	// the color classes to build the MIS. Nodes outside V<4 neither send
	// nor receive anywhere in this fixed-length segment (every H-edge has
	// both endpoints in V<4), so they sleep through it in one skip; the
	// segment length is the same for everyone, so lockstep is preserved.
	if !inV4 {
		congest.SpinUntil(ns.ctx, ns.ctx.Round()+ns.p.misSpan())
		ns.finishIteration(iter, false)
		return
	}
	hColor := ns.psi
	for _, st := range ns.p.MISSched {
		for i, w := range ns.ctx.Neighbors() {
			if hNbr[i] {
				ns.ctx.Send(int(w), append(ns.msgBuf(i), tagHLin, hColor))
			}
		}
		nbrColors := ns.nbrColors[:0]
		for _, in := range ns.ctx.Next() {
			mustTag(in, tagHLin)
			if hNbr[ns.ctx.NeighborIndex(in.From)] {
				nbrColors = append(nbrColors, in.Payload[1])
			}
		}
		next, err := linial.NextColor(hColor, nbrColors, st)
		if err != nil {
			panic(fmt.Sprintf("core: MIS Linial failed at node %d: %v", ns.ctx.ID(), err))
		}
		hColor = next
	}

	// The sweep spends round start+c on color class c. A node acts only
	// in its own class's round, on the tagMIS messages that reached it
	// before, so it sleeps to that round, joins unless an H-neighbor
	// already did, and sleeps out the sweep.
	if hColor >= ns.p.MISK {
		panic(fmt.Sprintf("core: node %d has H-color %d outside the MIS sweep's %d classes", ns.ctx.ID(), hColor, ns.p.MISK))
	}
	start := ns.ctx.Round()
	inMIS := true
	for _, in := range ns.ctx.SkipUntil(start + int(hColor)) {
		mustTag(in, tagMIS)
		if hNbr[ns.ctx.NeighborIndex(in.From)] {
			inMIS = false
		}
	}
	if inMIS {
		for i, w := range ns.ctx.Neighbors() {
			if hNbr[i] {
				ns.ctx.Send(int(w), misMsg)
			}
		}
	}
	for _, in := range ns.ctx.SkipUntil(start + int(ns.p.MISK)) {
		mustTag(in, tagMIS)
	}

	ns.finishIteration(iter, inMIS)
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
		ns.color = ns.cands[0]
		ns.colored = true
		ns.alive = false
		ns.coloredAt = iter
		ns.m.addColored(iter, ns.ctx.ID(), ns.weight)
		for i, w := range ns.ctx.Neighbors() {
			ns.ctx.Send(int(w), append(ns.msgBuf(i), tagFinal, uint64(ns.color)))
		}
	}
	ns.applyFinals(ns.ctx.Next())
}

// applyFinals prunes the announce round's newly colored neighbors: they
// are no longer alive, and their colors leave a live node's list.
func (ns *nodeState) applyFinals(in []congest.Incoming) {
	for _, m := range in {
		mustTag(m, tagFinal)
		ns.aliveNbr[ns.ctx.NeighborIndex(m.From)] = false
		if ns.alive {
			ns.list = removeColor(ns.list, uint32(m.Payload[1]))
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
// state: coin forms come from the per-run caches (only thresholds change
// per phase), the owned edges' form residuals live on incrementally
// folded sheets, and every buffer (payloads, sheets, aggregation
// vector) is reused, so a phase allocates nothing once the caches are
// warm. runPhaseRef keeps the pre-optimization evaluation path; the two
// must produce bit-identical seeds, potentials, and traffic.
func (ns *nodeState) runPhase(iter, l int) {
	deg := ns.ctx.Degree()
	bitPos := ns.p.LogC - l
	var k1, k0 int
	if ns.alive {
		k1 = countBitOnes(ns.cands, bitPos)
		k0 = len(ns.cands) - k1
		for i, w := range ns.ctx.Neighbors() {
			if ns.conflict[i] {
				ns.ctx.Send(int(w), append(ns.msgBuf(i), tagPhase, uint64(k1), uint64(len(ns.cands)), ns.psi))
			}
		}
	}
	for _, in := range ns.ctx.Next() {
		mustTag(in, tagPhase)
		i := ns.ctx.NeighborIndex(in.From)
		ns.nbrK1[i], ns.nbrLen[i], ns.nbrPsi[i] = in.Payload[1], in.Payload[2], in.Payload[3]
	}

	// Bind this node's and the conflict neighbors' cached forms to this
	// phase's thresholds.
	var myCoin gf2.Coin
	nbrCoins := ns.nbrCoins
	if ns.alive {
		var err error
		myCoin, err = gf2.NewCoinFromForms(ns.ownForms(), uint64(k1), uint64(len(ns.cands)))
		if err != nil {
			panic(fmt.Sprintf("core: node %d coin: %v", ns.ctx.ID(), err))
		}
		for i := 0; i < deg; i++ {
			if !ns.conflict[i] {
				continue
			}
			nbrCoins[i], err = gf2.NewCoinFromForms(ns.neighborForms(i, ns.nbrPsi[i]), ns.nbrK1[i], ns.nbrLen[i])
			if err != nil {
				panic(fmt.Sprintf("core: node %d neighbor coin: %v", ns.ctx.ID(), err))
			}
		}
	}

	// Owned conflict edges (each edge is owned by its smaller endpoint);
	// the conflict set is fixed for the whole phase, so the seed-bit loop
	// iterates this list instead of rescanning the full neighbor set D
	// times. A conflict neighbor with a smaller ID owns the shared edge
	// and reads this node's marginal.
	ns.ownedIdx = ns.ownedIdx[:0]
	ns.margRead = false
	if ns.alive {
		for i, w := range ns.ctx.Neighbors() {
			switch {
			case !ns.conflict[i]:
			case int(w) > ns.ctx.ID():
				ns.ownedIdx = append(ns.ownedIdx, int32(i))
			default:
				ns.margRead = true
			}
		}
	}

	// Stash the seed-bit loop's inputs and lay the owned edges' form
	// residuals out as incrementally folded sheets (the bit-sliced block
	// path; evalPhaseBit uses the scalar kernel when the layout doesn't
	// apply). The hub then runs the whole seed-bit segment centrally and
	// returns the component's seed (bulk.go).
	ns.phK1, ns.phK0, ns.phMyCoin = k1, k0, myCoin
	ns.buildSheets(myCoin)
	ns.finishPhase(iter, l, bitPos, myCoin, ns.runPhaseBulk())
}

// buildSheets lays this phase's owned-edge coin forms out on residual
// sheets: each sheet carries this node's form group once plus as many
// neighbor groups as fit, in owned-edge order, so one sheet's neighbor
// coins are a contiguous run of owned edges. D ≤ 64 keeps every mask in
// the low word and B ≤ 32, so the own group and a neighbor group always
// share a fresh sheet; a group AddForms still refused would clear
// sheetOK and send the whole node to the scalar kernel — never a mixed
// layout, which keeps the tier identical across bits.
func (ns *nodeState) buildSheets(myCoin gf2.Coin) {
	ns.sheetN = 0
	ns.edgeBlk = ns.edgeBlk[:0]
	// Sheets are single-word and the block kernels split bits below 64
	// only, so D ≤ 64 gates the layout.
	ns.sheetOK = ns.p.D <= 64 && ns.alive && len(ns.ownedIdx) > 0
	if !ns.sheetOK {
		return
	}
	myForms := ns.ownForms()
	nbrs := ns.ctx.Neighbors()
	var cur *gf2.FormSheet
	for _, i := range ns.ownedIdx {
		fv := ns.neighborForms(int(i), ns.nbrPsi[i])
		if cur == nil || cur.Free() < len(fv) {
			cur = ns.nextSheet()
			lane, ok := cur.AddForms(myForms)
			if !ok {
				ns.sheetOK, ns.sheetN = false, 0
				return
			}
			ns.ownBlk = gf2.BlockCoin{Lane: lane, B: myCoin.Bits(), T: myCoin.Threshold()}
		}
		lane, ok := cur.AddForms(fv)
		if !ok {
			ns.sheetOK, ns.sheetN = false, 0
			return
		}
		cv := ns.nbrCoins[i]
		ns.edgeBlk = append(ns.edgeBlk, edgeBlock{
			sheet: int32(ns.sheetN - 1),
			mv:    int32(ns.rankOf[nbrs[i]]),
			cv:    gf2.BlockCoin{Lane: lane, B: cv.Bits(), T: cv.Threshold()},
		})
	}
	for k := 0; k < ns.sheetN; k++ {
		ns.sheets[k].Seal()
	}
}

// nextSheet returns the next reusable sheet, reset.
func (ns *nodeState) nextSheet() *gf2.FormSheet {
	if ns.sheetN == len(ns.sheets) {
		ns.sheets = append(ns.sheets, new(gf2.FormSheet))
	}
	s := ns.sheets[ns.sheetN]
	s.Reset()
	ns.sheetN++
	return s
}

// foldSheets folds the chosen value of seed bit j into every residual
// sheet — the per-bit incremental update that lets the next evaluated
// bit start from current residuals instead of re-reducing each form
// against the basis.
//
//sbw:allocfree phase-step kernel: per-seed-bit sheet fold, once per node per evaluated bit on the node's hub band
func (ns *nodeState) foldSheets(j int, rj bool) {
	for k := 0; k < ns.sheetN; k++ {
		ns.sheets[k].Fix(j, rj)
	}
}

// evalPhaseBit sums this node's owned-edge contributions to the two
// conditional expectations of the seed bit sb splits — E[X | bit=0] and
// E[X | bit=1] — accumulated in owned-edge order. marg is the hub's
// per-bit table of every slot's own-coin marginal pair (ownMarginal),
// read by neighbor slot.
//
// Two evaluation tiers, bit-identical to each other and to runPhaseRef
// (the differential and fuzz suites pin both): the batched sheet path —
// this node's coin walked once, and the walk replayed per edge against
// the neighbor's coin and marginal — for D ≤ 64, and the scalar split
// kernel for nodes whose forms no sheet can carry (D > 64).
func (ns *nodeState) evalPhaseBit(sb *gf2.SplitBasis, marg []gf2.ProbPair) (x0, x1 float64) {
	k1, k0 := ns.phK1, ns.phK0
	if ns.sheetOK {
		// Joint probabilities and the Lemma 2.2 terms, in owned order —
		// the same accumulation order as the scalar path.
		ow := sb.WalkOwner(ns.sheets[0], ns.ownBlk)
		pu := ow.Marginal()
		for ei, i := range ns.ownedIdx {
			eb := &ns.edgeBlk[ei]
			pv := marg[eb.mv]
			p11 := ow.Joint(ns.sheets[eb.sheet], eb.cv, pv)
			k1v, k0v := int(ns.nbrK1[i]), int(ns.nbrLen[i])-int(ns.nbrK1[i])
			x0 += edgeCombine(pu.P0, pv.P0, p11.P0, k1, k0, k1v, k0v)
			x1 += edgeCombine(pu.P1, pv.P1, p11.P1, k1, k0, k1v, k0v)
		}
		return x0, x1
	}
	for _, i := range ns.ownedIdx {
		k1v, k0v := int(ns.nbrK1[i]), int(ns.nbrLen[i])-int(ns.nbrK1[i])
		e0, e1 := EdgeExpectationSplit(sb, ns.phMyCoin, ns.nbrCoins[i], k1, k0, k1v, k0v)
		x0 += e0
		x1 += e1
	}
	return x0, x1
}

// ownMarginal returns this node's own coin marginal under both
// branches of sb's split bit: read off its first sheet (the own-coin
// group heads every sheet), or walked by the scalar kernel when the
// node has no sheets. The hub's table entry for this slot.
func (ns *nodeState) ownMarginal(sb *gf2.SplitBasis) gf2.ProbPair {
	if !ns.sheetOK {
		p0, p1 := sb.ProbOnePair(ns.phMyCoin)
		return gf2.ProbPair{P0: p0, P1: p1}
	}
	req := [1]gf2.BlockCoin{ns.ownBlk}
	var out [1]gf2.ProbPair
	sb.ProbOnePairBlock(ns.sheets[0], req[:], out[:])
	return out[0]
}

// finishPhase extends prefixes and prunes the conflict graph (1 round);
// shared tail of runPhase and runPhaseRef.
func (ns *nodeState) finishPhase(iter, l, bitPos int, myCoin gf2.Coin, seed gf2.Vec128) {
	var myBit bool
	if ns.alive {
		myBit = myCoin.Value(seed)
		ns.cands = filterByBit(ns.cands, bitPos, myBit)
		if len(ns.cands) == 0 {
			panic(fmt.Sprintf("core: node %d candidate list became empty", ns.ctx.ID()))
		}
		for i, w := range ns.ctx.Neighbors() {
			if ns.conflict[i] {
				ns.ctx.Send(int(w), append(ns.msgBuf(i), tagBit, boolWord(myBit)))
			}
		}
	}
	confDeg := 0
	for _, in := range ns.ctx.Next() {
		mustTag(in, tagBit)
		i := ns.ctx.NeighborIndex(in.From)
		if ns.conflict[i] {
			ns.conflict[i] = ns.alive && (in.Payload[1] == 1) == myBit
			if ns.conflict[i] {
				confDeg++
			}
		}
	}
	if ns.alive {
		ns.m.addPotPhase(iter, l, ns.ctx.ID(), float64(ns.weight)*float64(confDeg)/float64(len(ns.cands)))
	}
}

// runPhaseRef is the pre-optimization phase evaluation, kept as the
// differential reference for the hot path: per-phase coin construction
// through Family.OutputForms, a fresh basis whose fixed bits are stored
// as ordinary echelon rows cloned and re-reduced per β branch, and
// allocating sends. TestPhasePotentialsMatchReference pins that runPhase
// reproduces its seeds, potentials, stats, and colors bit for bit.
func (ns *nodeState) runPhaseRef(iter, l int) {
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
	for _, in := range ns.ctx.Next() {
		mustTag(in, tagPhase)
		i := ns.ctx.NeighborIndex(in.From)
		ns.nbrK1[i], ns.nbrLen[i], ns.nbrPsi[i] = in.Payload[1], in.Payload[2], in.Payload[3]
	}

	// Build this node's coin and its conflict neighbors' coins afresh.
	var myCoin gf2.Coin
	nbrCoins := ns.nbrCoins
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
			nbrCoins[i], err = gf2.NewCoin(ns.p.Fam, ns.nbrPsi[i], ns.p.B, ns.nbrK1[i], ns.nbrLen[i])
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
					e := EdgeExpectation(bs2, myCoin, nbrCoins[i],
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

	ns.finishPhase(iter, l, bitPos, myCoin, seed)
}

// converge aggregates the pair (x0, x1) over all nodes via the BFS tree
// and returns the totals to every node, then resynchronizes the global
// round so that fixed-length segments may follow.
func (ns *nodeState) converge(x0, x1 float64) [2]float64 {
	start := ns.ctx.Round()
	ns.op++
	// Lockstep contract: every converge starts right after the previous
	// one's SpinUntil (or the synchronized tree build), so the
	// skip-scheduled aggregation applies — nodes sleep through the wave
	// instead of ticking every round.
	ns.convVec[0], ns.convVec[1] = x0, x1
	res := congest.ConvergeSumLockstepTo(ns.ctx, ns.tree, ns.op, ns.convVec[:], start+ns.convergeSpan())
	// Copy before returning: the result buffer lives on the tree.
	return [2]float64{res[0], res[1]}
}

func mustTag(in congest.Incoming, want uint64) {
	if in.Payload[0] != want {
		panic(fmt.Sprintf("core: unexpected tag %d (want %d) from node %d",
			in.Payload[0], want, in.From))
	}
}

func boolWord(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
