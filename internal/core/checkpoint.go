package core

// Checkpoint/restore for the Theorem 1.1 CONGEST runs.
//
// The engine takes consistent cuts at the round barriers in which every
// node committed its state (internal/engine/checkpoint.go); this file
// defines what a core node commits — a canonical byte blob of its whole
// protocol state at the top of a partial-coloring iteration — and how a
// fresh run restores from such a cut: done nodes are grafted straight
// into the Result, live nodes skip the tree build and Linial segments
// (their outcome is in the run's BFS layout and the blob) and re-enter
// the iteration loop at the recorded iteration and engine round.
// Because the protocol is deterministic, the resumed run reproduces the
// uninterrupted run's colors, Stats, and telemetry bit for bit — the
// property the crash-at-every-round sweep pins.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"smallbandwidth/internal/congest"
	"smallbandwidth/internal/graph"
	"smallbandwidth/internal/snapshot"
)

// checkpointModel fingerprints the algorithm a checkpoint belongs to; a
// resume refuses blobs from a different protocol.
const checkpointModel = "congest/listcolor/v1"

// Checkpoint bundles everything needed to resume a Theorem 1.1 run:
// the instance, the options it ran under, and the engine's cut.
type Checkpoint struct {
	Inst *graph.Instance
	Opts Options
	Snap *congest.RunSnapshot
}

// ckRun carries checkpoint collection and the snapshot to restore from
// into runColoringDomains.
type ckRun struct {
	ck   *congest.Checkpointer
	snap *congest.RunSnapshot
}

// nodeRestore is one node's decoded checkpoint blob.
type nodeRestore struct {
	iter      int
	done      bool // node finished before the cut (never reruns)
	alive     bool
	colored   bool
	color     uint32
	coloredAt int
	psi       uint64
	op        uint64

	// Spanning-tree view, flattened; decodeRestore demands the run's
	// layout of it.
	parent        int
	depth         int
	height        int
	size          int
	subtreeHeight int

	list     []uint32
	aliveNbr []bool
}

// commitBlob encodes the node's full protocol state at the top of
// iteration iter. The encoding is canonical (fixed field order, delta-
// coded sorted list), so cut bytes are identical across worker counts.
// It writes the snapshot encoder's field encodings (snapshot.Enc:
// uvarints, zigzag varints, one byte per bool), which decodeNodeBlob
// reads back, into the node's reused blob buffer: Ctx.Commit copies the
// blob, and a buffer sized once at node setup (blobCap) grows no slice
// deep in the node's stack.
func (ns *nodeState) commitBlob(iter int) []byte {
	b := ns.blob[:0]
	b = binary.AppendUvarint(b, uint64(iter))
	b = appendBool(b, ns.alive)
	b = appendBool(b, ns.colored)
	b = binary.AppendUvarint(b, uint64(ns.color))
	b = binary.AppendVarint(b, int64(ns.coloredAt))
	b = binary.AppendUvarint(b, ns.psi)
	b = binary.AppendUvarint(b, ns.op)
	v := ns.ctx.ID()
	tl := ns.lay.TreeOf(v)
	b = binary.AppendVarint(b, int64(ns.lay.Parent[v]))
	b = binary.AppendUvarint(b, uint64(ns.lay.Depth[v]))
	b = binary.AppendUvarint(b, uint64(tl.Height))
	b = binary.AppendUvarint(b, uint64(tl.Size))
	b = binary.AppendUvarint(b, uint64(ns.lay.SubtreeHeight[v]))
	b = binary.AppendUvarint(b, uint64(len(ns.list)))
	prev := int64(-1)
	for _, c := range ns.list {
		b = binary.AppendUvarint(b, uint64(int64(c)-prev))
		prev = int64(c)
	}
	b = binary.AppendUvarint(b, uint64(len(ns.aliveNbr)))
	for _, live := range ns.aliveNbr {
		b = appendBool(b, live)
	}
	ns.blob = b
	return b
}

// blobCap bounds the length of a commit blob of a node with the given
// degree and list length over c colors: the fixed fields at their
// widest, and one delta per list color of at most c's width.
func blobCap(deg, listLen int, c uint32) int {
	colorLen := max(1, (bits.Len32(c)+6)/7) // uvarint bytes of c
	return 2 + 2*binary.MaxVarintLen64 + 9*binary.MaxVarintLen32 + (listLen+1)*colorLen + deg
}

func appendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// applyRestore overwrites the freshly initialized node state with the
// decoded checkpoint state. The tree is the run's layout, which
// decodeRestore checked the blob against; the build ran before the cut,
// and replaying it would charge rounds the original run never paid.
func (ns *nodeState) applyRestore(rs *nodeRestore) {
	ns.alive = rs.alive
	ns.colored = rs.colored
	ns.color = rs.color
	ns.coloredAt = rs.coloredAt
	ns.psi = rs.psi
	ns.op = rs.op
	ns.list = ns.list[:len(rs.list)]
	copy(ns.list, rs.list)
	copy(ns.aliveNbr, rs.aliveNbr)
}

// decodeNodeBlob parses and structurally validates one commit blob.
// deg/listCap/c are the node's degree, original list length, and the
// color-space size; malformed bytes yield an error, never a panic.
func decodeNodeBlob(b []byte, deg, listCap int, c uint32) (*nodeRestore, error) {
	d := snapshot.NewDec(b)
	iter := d.Uvarint()
	rs := &nodeRestore{alive: d.Bool(), colored: d.Bool()}
	color := d.Uvarint()
	coloredAt := d.Varint()
	rs.psi = d.Uvarint()
	rs.op = d.Uvarint()
	parent := d.Varint()
	depth := d.Uvarint()
	height := d.Uvarint()
	size := d.Uvarint()
	sub := d.Uvarint()
	k := d.Count(1)
	if d.Err() != nil {
		return nil, d.Err()
	}
	rs.list = make([]uint32, k)
	prev := int64(-1)
	for i := range rs.list {
		delta := d.Uvarint()
		prev += int64(delta)
		if d.Err() != nil || delta == 0 || prev >= int64(c) {
			return nil, errors.New("core: checkpoint blob has an invalid color list")
		}
		rs.list[i] = uint32(prev)
	}
	nb := d.Count(1)
	rs.aliveNbr = make([]bool, nb)
	for i := range rs.aliveNbr {
		rs.aliveNbr[i] = d.Bool()
	}
	if err := d.Close(); err != nil {
		return nil, err
	}

	if iter > math.MaxInt32 || color >= uint64(c) && rs.colored ||
		depth > math.MaxInt32 || height > math.MaxInt32 || size > math.MaxInt32 || sub > math.MaxInt32 ||
		parent < -1 || parent > math.MaxInt32 {
		return nil, errors.New("core: checkpoint blob field out of range")
	}
	rs.iter = int(iter)
	rs.color = uint32(color)
	rs.coloredAt = int(coloredAt)
	rs.parent = int(parent)
	rs.depth, rs.height, rs.size, rs.subtreeHeight = int(depth), int(height), int(size), int(sub)
	if rs.alive == rs.colored {
		// A core node is alive exactly until it takes a color; the only
		// other exit (the iteration cap) leaves it alive and uncolored.
		return nil, errors.New("core: checkpoint blob alive/colored flags inconsistent")
	}
	if rs.colored && (coloredAt < 0 || coloredAt >= int64(iter)) || !rs.colored && coloredAt != -1 {
		return nil, errors.New("core: checkpoint blob coloring iteration inconsistent")
	}
	if nb != deg {
		return nil, fmt.Errorf("core: checkpoint blob records %d neighbors, node has %d", nb, deg)
	}
	if len(rs.list) > listCap {
		return nil, fmt.Errorf("core: checkpoint blob list exceeds the node's original list")
	}
	if rs.depth > rs.height || rs.subtreeHeight > rs.height {
		return nil, errors.New("core: checkpoint blob tree geometry inconsistent")
	}
	return rs, nil
}

// decodeRestore decodes every node blob of the snapshot and validates
// the cut against the instance: every node's tree fields must be the
// ones the run's layout gives it, and every node of a component must be
// at the same iteration.
func decodeRestore(inst *graph.Instance, comps [][]int, lay *congest.BFSLayout, snap *congest.RunSnapshot) ([]*nodeRestore, error) {
	restore := make([]*nodeRestore, inst.G.N())
	compByRoot := make(map[int32][]int, len(comps))
	for _, comp := range comps {
		compByRoot[int32(comp[0])] = comp
	}
	for ci := range snap.Cuts {
		cut := &snap.Cuts[ci]
		comp := compByRoot[cut.Root]
		if comp == nil {
			return nil, fmt.Errorf("core: snapshot cut names unknown component root %d", cut.Root)
		}
		if len(cut.Nodes) != len(comp) {
			return nil, fmt.Errorf("core: snapshot cut of component %d covers %d of its %d nodes",
				cut.Root, len(cut.Nodes), len(comp))
		}
		for i := range cut.Nodes {
			nc := &cut.Nodes[i]
			v := int(nc.ID)
			if comp[i] != v {
				return nil, fmt.Errorf("core: snapshot cut of component %d has node %d where %d belongs",
					cut.Root, v, comp[i])
			}
			if restore[v] != nil {
				return nil, fmt.Errorf("core: node %d appears in two snapshot cuts", v)
			}
			rs, err := decodeNodeBlob(nc.Blob, inst.G.Degree(v), len(inst.Lists[v]), inst.C)
			if err != nil {
				return nil, fmt.Errorf("core: node %d: %w", v, err)
			}
			tl := lay.TreeOf(v)
			if rs.parent != int(lay.Parent[v]) || rs.depth != int(lay.Depth[v]) || rs.height != tl.Height ||
				rs.size != tl.Size || rs.subtreeHeight != int(lay.SubtreeHeight[v]) {
				return nil, fmt.Errorf("core: node %d's checkpointed tree (parent %d, depth %d, height %d, size %d, subtree height %d) is not the graph's BFS tree",
					v, rs.parent, rs.depth, rs.height, rs.size, rs.subtreeHeight)
			}
			rs.done = nc.Done
			restore[v] = rs
		}
		// Component-wide consistency: every node at the same iteration.
		first := restore[comp[0]]
		for _, v := range comp {
			if rs := restore[v]; rs.iter != first.iter || rs.done != first.done {
				return nil, fmt.Errorf("core: snapshot cut of component %d is internally inconsistent at node %d",
					cut.Root, v)
			}
		}
	}
	return restore, nil
}

// ListColorResumable is ListColorCONGEST with checkpoint/restore: ck,
// when non-nil, collects a consistent cut at every partial-coloring
// iteration boundary; snap, when non-nil, restores the run from such a
// cut instead of starting fresh. Components absent from the snapshot
// start from round zero. The resumed run finishes with exactly the
// colors, Stats, and per-iteration telemetry of the uninterrupted run.
//
// Restored runs always simulate every component (the identity-class
// deduplication of ListColorCONGEST is skipped, as a snapshot names
// concrete node IDs), and potential tracking is rejected: per-phase
// potential sums are measured live and cannot be reconstructed from a
// mid-run cut.
func ListColorResumable(inst *graph.Instance, opts Options, ck *congest.Checkpointer, snap *congest.RunSnapshot) (*Result, error) {
	if opts.TrackPotentials {
		return nil, errors.New("core: potential tracking cannot span a checkpoint/resume boundary")
	}
	p, err := ComputeParams(inst, opts)
	if err != nil {
		return nil, err
	}
	if inst.G.N() == 0 {
		return &Result{Params: p, Done: true}, nil
	}
	res, _, err := runColoringDomains(inst, opts, p, nil, nil, &ckRun{ck: ck, snap: snap})
	return res, err
}

// ListColorFromCheckpoint resumes a run from a decoded checkpoint file,
// under exactly the options the checkpoint records.
func ListColorFromCheckpoint(cp *Checkpoint, ck *congest.Checkpointer) (*Result, error) {
	return ListColorResumable(cp.Inst, cp.Opts, ck, cp.Snap)
}

// EncodeCheckpoint serializes a checkpoint into the versioned snapshot
// container: the options fingerprint, the CSR graph dump, the color
// lists, the engine cut, and the (empty) seed-provenance section — the
// algorithm is deterministic and keeps no live RNG state. The encoding
// is canonical: decoding a checkpoint and re-encoding it reproduces the
// bytes exactly, which the golden-file test pins for format v1.
func EncodeCheckpoint(cp *Checkpoint) []byte {
	var eng snapshot.Enc
	snapshot.EncodeRunSnapshot(&eng, cp.Snap)
	var rng snapshot.Enc
	rng.Uvarint(0)
	return snapshot.Encode(&snapshot.Container{
		Version: snapshot.Version,
		Sections: append(EncodeCheckpointHeader(checkpointModel, cp.Inst, cp.Opts),
			snapshot.Section{ID: snapshot.SecEngine, Data: eng.Bytes()},
			snapshot.Section{ID: snapshot.SecRNG, Data: rng.Bytes()}),
	})
}

// DecodeCheckpoint parses a checkpoint file. Corrupt or truncated input
// returns an error, never panics; the decoded instance is revalidated,
// and the engine revalidates the cut against it on resume.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	c, err := snapshot.Decode(b)
	if err != nil {
		return nil, err
	}
	inst, opts, err := DecodeCheckpointHeader(c, checkpointModel, "core")
	if err != nil {
		return nil, err
	}
	ed, err := checkpointSection(c, snapshot.SecEngine, "core", "engine")
	if err != nil {
		return nil, err
	}
	snap, err := snapshot.DecodeRunSnapshot(ed)
	if err != nil {
		return nil, err
	}
	if err := ed.Close(); err != nil {
		return nil, err
	}
	return &Checkpoint{Inst: inst, Opts: opts, Snap: snap}, nil
}

// EncodeCheckpointHeader returns the sections every checkpoint of a
// coloring run opens with, whatever the algorithm after them: the meta
// section (the algorithm's fingerprint and the options MaxWords,
// MaxRounds, MaxIterations and HighAccuracy), the CSR graph dump, and
// the original color lists.
func EncodeCheckpointHeader(fingerprint string, inst *graph.Instance, opts Options) []snapshot.Section {
	var meta snapshot.Enc
	meta.Blob([]byte(fingerprint))
	meta.Uvarint(uint64(opts.MaxWords))
	meta.Uvarint(uint64(opts.MaxRounds))
	meta.Uvarint(uint64(opts.MaxIterations))
	meta.Bool(opts.HighAccuracy)
	var g snapshot.Enc
	snapshot.EncodeGraph(&g, inst.G)
	var lists snapshot.Enc
	snapshot.EncodeLists(&lists, inst.C, inst.Lists)
	return []snapshot.Section{
		{ID: snapshot.SecMeta, Data: meta.Bytes()},
		{ID: snapshot.SecGraph, Data: g.Bytes()},
		{ID: snapshot.SecLists, Data: lists.Bytes()},
	}
}

// DecodeCheckpointHeader reads back what EncodeCheckpointHeader wrote: it
// refuses a fingerprint other than the given one and out-of-range
// options, and revalidates the instance. Errors start with prefix, the
// decoding package's name.
func DecodeCheckpointHeader(c *snapshot.Container, fingerprint, prefix string) (*graph.Instance, Options, error) {
	md, err := checkpointSection(c, snapshot.SecMeta, prefix, "meta")
	if err != nil {
		return nil, Options{}, err
	}
	model := string(md.Blob())
	maxWords := md.Uvarint()
	maxRounds := md.Uvarint()
	maxIter := md.Uvarint()
	high := md.Bool()
	if err := md.Close(); err != nil {
		return nil, Options{}, err
	}
	if model != fingerprint {
		return nil, Options{}, fmt.Errorf("%s: checkpoint fingerprint %q, this decoder reads %q", prefix, model, fingerprint)
	}
	if maxWords > math.MaxInt32 || maxRounds > math.MaxInt32 || maxIter > math.MaxInt32 {
		return nil, Options{}, fmt.Errorf("%s: checkpoint option fields out of range", prefix)
	}
	opts := Options{
		MaxWords:      int(maxWords),
		MaxRounds:     int(maxRounds),
		MaxIterations: int(maxIter),
		HighAccuracy:  high,
	}

	gd, err := checkpointSection(c, snapshot.SecGraph, prefix, "graph")
	if err != nil {
		return nil, Options{}, err
	}
	g, err := snapshot.DecodeGraph(gd)
	if err != nil {
		return nil, Options{}, err
	}
	if err := gd.Close(); err != nil {
		return nil, Options{}, err
	}

	ld, err := checkpointSection(c, snapshot.SecLists, prefix, "lists")
	if err != nil {
		return nil, Options{}, err
	}
	cc, lists, err := snapshot.DecodeLists(ld)
	if err != nil {
		return nil, Options{}, err
	}
	if err := ld.Close(); err != nil {
		return nil, Options{}, err
	}
	inst := &graph.Instance{G: g, C: cc, Lists: lists}
	if err := inst.Validate(); err != nil {
		return nil, Options{}, fmt.Errorf("%s: checkpoint instance invalid: %w", prefix, err)
	}
	return inst, opts, nil
}

// checkpointSection returns a decoder over section id of c, or an error
// naming the missing section.
func checkpointSection(c *snapshot.Container, id uint32, prefix, name string) (*snapshot.Dec, error) {
	data := c.Find(id)
	if data == nil {
		return nil, fmt.Errorf("%s: checkpoint lacks its %s section", prefix, name)
	}
	return snapshot.NewDec(data), nil
}
