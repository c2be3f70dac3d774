package netdecomp

import (
	"fmt"

	"smallbandwidth/internal/congest"
	"smallbandwidth/internal/core"
	"smallbandwidth/internal/graph"
)

// DecompResult is the outcome of the Corollary 1.2 pipeline.
type DecompResult struct {
	Colors []uint32
	Decomp *Decomposition
	// ChargedRounds follows the paper's accounting: decomposition
	// construction + per color class the maximum cluster coloring rounds
	// multiplied by the measured congestion κ (same-color cluster trees
	// sharing an edge pipeline their messages), plus one global exchange
	// round between consecutive classes (classes − 1 in total: after the
	// final class there is nothing left to update).
	ChargedRounds int
	// ClassRounds[c] is the max rounds over the clusters of class c+1 —
	// with the batched execution, directly the engine rounds of class
	// c+1's single run (a cluster's nodes exit when their cluster is
	// colored, so the run lasts exactly as long as its slowest cluster).
	ClassRounds []int
	// ClassStats[c] is the full engine measurement of class c+1's run:
	// Rounds is the max over the class's clusters (components), while
	// Messages/Words sum over them.
	ClassStats []congest.Stats
	Messages   int64
	Words      int64
}

// ListColorDecomposed solves the (degree+1)-list-coloring instance with
// the Corollary 1.2 pipeline: build an (O(log n), O(log³n))-network
// decomposition with congestion (Theorem 3.1 [RG19]), then iterate
// through its color classes and apply the Theorem 1.1 algorithm to all
// clusters of one class in parallel, updating lists between classes.
// Unlike Theorem 1.1 its cost is polylog(n) independent of the diameter.
//
// Each class executes as ONE sharded engine run: clusters of one class
// are pairwise non-adjacent (Definition 3.1 (iii)), so the subgraph
// induced by all their members is their disjoint union, and the
// component-aware core.ListColorCONGEST runs every cluster concurrently —
// per-cluster BFS roots, per-cluster converge() aggregation, staggered
// exits. The run's Rounds is the max over the class's clusters and its
// Messages/Words are sums, which is exactly the "all clusters of one
// class in parallel" accounting the corollary charges. Sub-instance lists
// are copied at the boundary; the caller's inst.Lists are never aliased
// into a run.
func ListColorDecomposed(inst *graph.Instance, opts core.Options) (*DecompResult, error) {
	return listColorDecomposed(inst, opts, true, nil, nil)
}

// ListColorDecomposedSeq is the pre-batching reference pipeline: one
// sequential engine spin-up per cluster per connected component of the
// cluster's member-induced subgraph, exactly as the seed implementation
// scheduled it. It exists as the recorded baseline of `benchtables
// -decomp` and as a differential oracle in tests; new callers want
// ListColorDecomposed.
func ListColorDecomposedSeq(inst *graph.Instance, opts core.Options) (*DecompResult, error) {
	return listColorDecomposed(inst, opts, false, nil, nil)
}

// listColorDecomposed runs the pipeline. onCk, when non-nil, receives a
// PipelineCheckpoint after every class boundary (class run plus the
// between-class exchange); resume, when non-nil, restores the pipeline
// at such a boundary instead of starting at class 1 (see checkpoint.go).
func listColorDecomposed(inst *graph.Instance, opts core.Options, batched bool, onCk func(*PipelineCheckpoint), resume *PipelineCheckpoint) (*DecompResult, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	d, err := Build(inst.G)
	if err != nil {
		return nil, err
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("netdecomp: decomposition invalid: %w", err)
	}

	n := inst.G.N()
	colors := make([]uint32, n)
	colored := make([]bool, n)
	// Working copy of the lists; colors taken by earlier classes are
	// removed before a node's own class runs.
	lists := make([][]uint32, n)
	for v := range lists {
		lists[v] = append([]uint32(nil), inst.Lists[v]...)
	}

	res := &DecompResult{Decomp: d, ChargedRounds: d.ChargedRound}
	kappa := d.Congestion
	if kappa < 1 {
		kappa = 1
	}

	start := 1
	if resume != nil {
		// The decomposition is rebuilt deterministically from the graph, so
		// the checkpoint carries only the pipeline's own progress: the
		// already-charged accounting and the post-exchange coloring state.
		if err := restorePipeline(inst, d, resume, colors, colored, lists, res); err != nil {
			return nil, err
		}
		start = resume.Class + 1
	}

	for class := start; class <= d.Colors; class++ {
		var st congest.Stats
		if batched {
			st, err = runClassBatched(inst, d, class, lists, colors, colored, opts)
		} else {
			st, err = runClassSequential(inst, d, class, lists, colors, colored, opts)
		}
		if err != nil {
			return nil, fmt.Errorf("netdecomp: class %d: %w", class, err)
		}
		res.ClassRounds = append(res.ClassRounds, st.Rounds)
		res.ClassStats = append(res.ClassStats, st)
		res.Messages += st.Messages
		res.Words += st.Words
		res.ChargedRounds += st.Rounds * kappa

		// Global exchange between classes: uncolored nodes remove the
		// colors just taken by colored neighbors. After the final class
		// every node is colored, so there is no exchange to charge.
		if class < d.Colors {
			res.ChargedRounds++
			for v := 0; v < n; v++ {
				if colored[v] {
					continue
				}
				for _, w := range inst.G.Neighbors(v) {
					if colored[w] && d.Clusters[d.ClusterOf[int(w)]].Color == class {
						lists[v] = graph.RemoveColor(lists[v], colors[w])
					}
				}
			}
		}
		if onCk != nil {
			onCk(capturePipeline(class, colors, colored, lists, res))
		}
	}
	for v := 0; v < n; v++ {
		if !colored[v] {
			return nil, fmt.Errorf("netdecomp: node %d left uncolored", v)
		}
	}
	if err := inst.VerifyColoring(colors); err != nil {
		return nil, fmt.Errorf("netdecomp: coloring invalid: %w", err)
	}
	res.Colors = colors
	return res, nil
}

// runClassBatched colors every cluster of one color class in a single
// disjoint-union engine run and reports that run's Stats (Rounds already
// max-over-clusters, Messages/Words already summed by the engine).
func runClassBatched(inst *graph.Instance, d *Decomposition, class int, lists [][]uint32, colors []uint32, colored []bool, opts core.Options) (congest.Stats, error) {
	var members []int
	for _, c := range d.Clusters {
		if c.Color == class {
			members = append(members, c.Members...)
		}
	}
	sub, orig := inst.G.InducedSubgraph(members)
	subLists := make([][]uint32, sub.N())
	for i, v := range orig {
		subLists[i] = append([]uint32(nil), lists[v]...)
	}
	subInst := &graph.Instance{G: sub, C: inst.C, Lists: subLists}
	r, err := core.ListColorCONGEST(subInst, opts)
	if err != nil {
		return congest.Stats{}, err
	}
	if !r.Done {
		return congest.Stats{}, fmt.Errorf("class run did not finish")
	}
	for i, v := range orig {
		colors[v] = r.Colors[i]
		colored[v] = true
	}
	return r.Stats, nil
}

// runClassSequential colors the class cluster by cluster, component by
// component, each in its own engine run, and folds the per-run stats
// into the parallel-composition shape (max rounds, summed traffic).
func runClassSequential(inst *graph.Instance, d *Decomposition, class int, lists [][]uint32, colors []uint32, colored []bool, opts core.Options) (congest.Stats, error) {
	var total congest.Stats
	for _, c := range d.Clusters {
		if c.Color != class {
			continue
		}
		sub, orig := inst.G.InducedSubgraph(c.Members)
		for _, comp := range sub.ConnectedComponents() {
			subsub, subOrig := sub.InducedSubgraph(comp)
			compLists := make([][]uint32, subsub.N())
			compOrig := make([]int, subsub.N())
			for i, sv := range subOrig {
				v := orig[sv]
				compOrig[i] = v
				compLists[i] = append([]uint32(nil), lists[v]...)
			}
			subInst := &graph.Instance{G: subsub, C: inst.C, Lists: compLists}
			r, err := core.ListColorCONGEST(subInst, opts)
			if err != nil {
				return congest.Stats{}, err
			}
			if !r.Done {
				return congest.Stats{}, fmt.Errorf("cluster run did not finish")
			}
			for i, v := range compOrig {
				colors[v] = r.Colors[i]
				colored[v] = true
			}
			if r.Stats.Rounds > total.Rounds {
				total.Rounds = r.Stats.Rounds
			}
			total.Messages += r.Stats.Messages
			total.Words += r.Stats.Words
			if r.Stats.MaxMessageWords > total.MaxMessageWords {
				total.MaxMessageWords = r.Stats.MaxMessageWords
			}
		}
	}
	return total, nil
}
