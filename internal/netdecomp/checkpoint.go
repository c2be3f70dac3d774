package netdecomp

// Checkpoint/restore for the Corollary 1.2 pipeline. The pipeline's
// natural consistent cuts are its class boundaries: after class c's
// engine run and the between-class exchange, the whole state of the
// computation is the working lists, the colors taken so far, and the
// cost accounting — no engine run is in flight. A PipelineCheckpoint
// captures exactly that, and a resumed pipeline rebuilds the (fully
// deterministic) decomposition from the graph and continues at class
// c+1, finishing with bit-identical Colors, ChargedRounds, and
// per-class Stats.

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"smallbandwidth/internal/congest"
	"smallbandwidth/internal/core"
	"smallbandwidth/internal/graph"
	"smallbandwidth/internal/snapshot"
)

// decompCheckpointModel fingerprints the pipeline a checkpoint belongs
// to; a resume refuses state from a different algorithm.
const decompCheckpointModel = "netdecomp/corollary12/v1"

// PipelineCheckpoint is the pipeline's complete state at a class
// boundary: classes 1..Class have run and their exchange (if any) is
// applied. Class == Decomposition.Colors marks a finished pipeline.
type PipelineCheckpoint struct {
	Class         int
	Colors        []uint32
	Colored       []bool
	Lists         [][]uint32 // working lists after the exchange
	ChargedRounds int
	ClassRounds   []int
	ClassStats    []congest.Stats
	Messages      int64
	Words         int64
}

// Checkpoint bundles a resumable pipeline run: the instance, the
// options it ran under, and the class-boundary state.
type Checkpoint struct {
	Inst  *graph.Instance
	Opts  core.Options
	State *PipelineCheckpoint
}

// ListColorDecomposedResumable is ListColorDecomposed with
// checkpoint/restore: onCheckpoint, when non-nil, receives the pipeline
// state after every class boundary (the callback owns the value; it
// shares nothing with the live run); resume, when non-nil, restores the
// pipeline from such a state instead of starting at class 1. The
// resumed run finishes with exactly the Colors, ChargedRounds, and
// per-class Stats of the uninterrupted run.
func ListColorDecomposedResumable(inst *graph.Instance, opts core.Options, onCheckpoint func(*PipelineCheckpoint), resume *PipelineCheckpoint) (*DecompResult, error) {
	return listColorDecomposed(inst, opts, true, onCheckpoint, resume)
}

// capturePipeline deep-copies the pipeline state at a class boundary.
func capturePipeline(class int, colors []uint32, colored []bool, lists [][]uint32, res *DecompResult) *PipelineCheckpoint {
	cp := &PipelineCheckpoint{
		Class:         class,
		Colors:        slices.Clone(colors),
		Colored:       slices.Clone(colored),
		Lists:         make([][]uint32, len(lists)),
		ChargedRounds: res.ChargedRounds,
		ClassRounds:   slices.Clone(res.ClassRounds),
		ClassStats:    slices.Clone(res.ClassStats),
		Messages:      res.Messages,
		Words:         res.Words,
	}
	for v := range lists {
		cp.Lists[v] = slices.Clone(lists[v])
	}
	return cp
}

// restorePipeline validates a checkpoint against the instance and the
// rebuilt decomposition, then installs its state into the run's working
// arrays (deep copies: the run never aliases the checkpoint).
func restorePipeline(inst *graph.Instance, d *Decomposition, cp *PipelineCheckpoint, colors []uint32, colored []bool, lists [][]uint32, res *DecompResult) error {
	n := inst.G.N()
	if cp.Class < 1 || cp.Class > d.Colors {
		return fmt.Errorf("netdecomp: checkpoint class %d outside 1..%d", cp.Class, d.Colors)
	}
	if len(cp.Colors) != n || len(cp.Colored) != n || len(cp.Lists) != n {
		return errors.New("netdecomp: checkpoint state sized for a different instance")
	}
	if len(cp.ClassRounds) != cp.Class || len(cp.ClassStats) != cp.Class {
		return fmt.Errorf("netdecomp: checkpoint at class %d carries %d class records", cp.Class, len(cp.ClassRounds))
	}
	for v := 0; v < n; v++ {
		if want := d.Clusters[d.ClusterOf[v]].Color <= cp.Class; cp.Colored[v] != want {
			return fmt.Errorf("netdecomp: checkpoint coloring of node %d contradicts its cluster class", v)
		}
		if cp.Colored[v] {
			continue
		}
		// An uncolored node's working list must be a subsequence of its
		// original list (exchanges only ever remove colors).
		orig := inst.Lists[v]
		j := 0
		for _, c := range cp.Lists[v] {
			for j < len(orig) && orig[j] != c {
				j++
			}
			if j == len(orig) {
				return fmt.Errorf("netdecomp: checkpoint list of node %d is not a subsequence of its original list", v)
			}
			j++
		}
	}
	copy(colors, cp.Colors)
	copy(colored, cp.Colored)
	for v := range cp.Lists {
		lists[v] = append(lists[v][:0], cp.Lists[v]...)
	}
	res.ChargedRounds = cp.ChargedRounds
	res.ClassRounds = slices.Clone(cp.ClassRounds)
	res.ClassStats = slices.Clone(cp.ClassStats)
	res.Messages = cp.Messages
	res.Words = cp.Words
	return nil
}

// EncodeCheckpoint serializes a pipeline checkpoint into the versioned
// snapshot container: core's checkpoint header (options fingerprint,
// CSR graph dump, the original color lists) and the class-boundary
// state in the algorithm section. The encoding is canonical: decode
// followed by encode reproduces the bytes exactly.
func EncodeCheckpoint(cp *Checkpoint) []byte {
	var algo snapshot.Enc
	encodePipelineState(&algo, cp.State)
	return snapshot.Encode(&snapshot.Container{
		Version: snapshot.Version,
		Sections: append(core.EncodeCheckpointHeader(decompCheckpointModel, cp.Inst, cp.Opts),
			snapshot.Section{ID: snapshot.SecAlgo, Data: algo.Bytes()}),
	})
}

func encodePipelineState(e *snapshot.Enc, s *PipelineCheckpoint) {
	e.Uvarint(uint64(s.Class))
	e.Uvarint(uint64(s.ChargedRounds))
	e.Uvarint(uint64(s.Messages))
	e.Uvarint(uint64(s.Words))
	e.Uvarint(uint64(len(s.ClassRounds)))
	for i := range s.ClassRounds {
		e.Uvarint(uint64(s.ClassRounds[i]))
		st := &s.ClassStats[i]
		e.Uvarint(uint64(st.Rounds))
		e.Uvarint(uint64(st.Messages))
		e.Uvarint(uint64(st.Words))
		e.Uvarint(uint64(st.MaxMessageWords))
	}
	e.Uvarint(uint64(len(s.Colors)))
	for _, c := range s.Colors {
		e.Uvarint(uint64(c))
	}
	for _, b := range s.Colored {
		e.Bool(b)
	}
	for v := range s.Lists {
		e.Uvarint(uint64(len(s.Lists[v])))
		prev := int64(-1)
		for _, c := range s.Lists[v] {
			e.Uvarint(uint64(int64(c) - prev))
			prev = int64(c)
		}
	}
}

// DecodeCheckpoint parses a pipeline checkpoint file. Corrupt or
// truncated input returns an error, never panics.
func DecodeCheckpoint(b []byte) (*Checkpoint, error) {
	c, err := snapshot.Decode(b)
	if err != nil {
		return nil, err
	}
	inst, opts, err := core.DecodeCheckpointHeader(c, decompCheckpointModel, "netdecomp")
	if err != nil {
		return nil, err
	}
	data := c.Find(snapshot.SecAlgo)
	if data == nil {
		return nil, errors.New("netdecomp: checkpoint lacks its pipeline state section")
	}
	ad := snapshot.NewDec(data)
	state, err := decodePipelineState(ad, inst.G.N(), inst.C)
	if err != nil {
		return nil, err
	}
	if err := ad.Close(); err != nil {
		return nil, err
	}
	return &Checkpoint{Inst: inst, Opts: opts, State: state}, nil
}

func decodePipelineState(d *snapshot.Dec, n int, c uint32) (*PipelineCheckpoint, error) {
	s := &PipelineCheckpoint{}
	class := d.Uvarint()
	charged := d.Uvarint()
	msgs := d.Uvarint()
	words := d.Uvarint()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if class > math.MaxInt32 || charged > math.MaxInt32 || msgs > math.MaxInt64 || words > math.MaxInt64 {
		return nil, errors.New("netdecomp: checkpoint accounting fields out of range")
	}
	s.Class = int(class)
	s.ChargedRounds = int(charged)
	s.Messages = int64(msgs)
	s.Words = int64(words)
	classes := d.Count(4)
	if d.Err() != nil {
		return nil, d.Err()
	}
	if classes > 0 {
		s.ClassRounds = make([]int, classes)
		s.ClassStats = make([]congest.Stats, classes)
	}
	for i := 0; i < classes; i++ {
		cr := d.Uvarint()
		rounds := d.Uvarint()
		cm := d.Uvarint()
		cw := d.Uvarint()
		mw := d.Uvarint()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if cr > math.MaxInt32 || rounds > math.MaxInt32 || cm > math.MaxInt64 || cw > math.MaxInt64 || mw > math.MaxInt32 {
			return nil, errors.New("netdecomp: checkpoint class record out of range")
		}
		s.ClassRounds[i] = int(cr)
		s.ClassStats[i] = congest.Stats{Rounds: int(rounds), Messages: int64(cm), Words: int64(cw), MaxMessageWords: int(mw)}
	}
	nn := d.Count(1)
	if d.Err() != nil {
		return nil, d.Err()
	}
	if nn != n {
		return nil, fmt.Errorf("netdecomp: checkpoint state covers %d nodes, instance has %d", nn, n)
	}
	s.Colors = make([]uint32, n)
	for v := range s.Colors {
		col := d.Uvarint()
		if d.Err() != nil {
			return nil, d.Err()
		}
		if col >= uint64(c) {
			return nil, fmt.Errorf("netdecomp: checkpoint color of node %d out of range", v)
		}
		s.Colors[v] = uint32(col)
	}
	s.Colored = make([]bool, n)
	for v := range s.Colored {
		s.Colored[v] = d.Bool()
	}
	s.Lists = make([][]uint32, n)
	for v := range s.Lists {
		k := d.Count(1)
		if d.Err() != nil {
			return nil, d.Err()
		}
		list := make([]uint32, k)
		prev := int64(-1)
		for i := range list {
			delta := d.Uvarint()
			prev += int64(delta)
			if d.Err() != nil || delta == 0 || prev >= int64(c) {
				return nil, fmt.Errorf("netdecomp: checkpoint list of node %d invalid", v)
			}
			list[i] = uint32(prev)
		}
		s.Lists[v] = list
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return s, nil
}
