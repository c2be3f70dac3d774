package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"smallbandwidth/internal/congest"
	"smallbandwidth/internal/core"
	"smallbandwidth/internal/graph"
	"smallbandwidth/internal/serve"
	"smallbandwidth/internal/store"
)

// opResult is one batch op: the color call, its verification, and for
// congest-ckpt the checkpoint writes plus the decode-and-resume check.
type opResult struct {
	Wall, ColorS, VerifyS float64
	Stats                 congest.Stats
	Iterations            int
	SeedBits              int64
	ColoredFracMin        float64
	colors                []uint32

	Cuts, Writes                      int
	Bytes                             int64
	EncodeS, WriteS, DecodeS, ResumeS float64
}

// setupBatch generates the workload's graph and list instance from the
// seed, recording setup.gen and setup.lists spans.
func setupBatch(workload string, sz scale, seed uint64, rec *recorder) (*graph.Instance, error) {
	gen := rec.begin(0, "setup.gen", -1)
	var (
		g   *graph.Graph
		c   uint32
		err error
	)
	switch workload {
	case "congest-grid":
		g, c = graph.Grid2D(sz.gridSide, sz.gridSide), sz.gridC
	case "congest-dense":
		g, err = graph.RandomRegular(sz.denseN, sz.denseD, seed)
		c = sz.denseC
	case "congest-ckpt":
		g, err = regularUnion(sz.ckptParts, sz.ckptPartN, sz.ckptDeg, seed)
		c = sz.ckptC
	default:
		err = fmt.Errorf("unknown batch workload %q", workload)
	}
	rec.end(gen)
	if err != nil {
		return nil, err
	}
	lists := rec.begin(0, "setup.lists", -1)
	inst, err := graph.RandomListInstance(g, c, sz.listSlack, seed)
	rec.end(lists)
	return inst, err
}

// regularUnion is the disjoint union of parts random d-regular graphs
// on n nodes each, part i drawn from seed·parts+i. Each part is its own
// lockstep domain, so a checkpointer takes a cut per part per iteration,
// and random regular parts keep the round count (the maximum over the
// parts) the same from seed to seed.
func regularUnion(parts, n, d int, seed uint64) (*graph.Graph, error) {
	b := graph.NewBuilder(parts * n)
	for i := 0; i < parts; i++ {
		g, err := graph.RandomRegular(n, d, seed*uint64(parts)+uint64(i))
		if err != nil {
			return nil, err
		}
		g.Edges(func(u, v int) { b.AddUnchecked(i*n+u, i*n+v) })
	}
	return b.BuildChecked()
}

// withLabel runs fn under a pprof label naming the span when tracing, so
// CPU samples can be split by span as well as by layer.
func withLabel(ctx context.Context, on bool, name string, fn func(context.Context)) {
	if !on {
		fn(ctx)
		return
	}
	pprof.Do(ctx, pprof.Labels("span", name), fn)
}

// runOp performs one op. Errors the program reports, a coloring that
// fails verification, and a resume that disagrees with the run all come
// back as err; the op's measurements are valid only when err is nil.
func runOp(ctx context.Context, cfg runConfig, inst *graph.Instance, rec *recorder, id int, traced bool) (r opResult, err error) {
	ckptFile := filepath.Join(cfg.WorkDir, "latest.snap")
	op := rec.begin(id, "op", -1)
	color := rec.begin(id, "op.color", op)
	var res *core.Result
	withLabel(ctx, traced, "op.color", func(ctx context.Context) {
		if cfg.Workload != "congest-ckpt" {
			res, err = core.ListColorCONGEST(inst, core.Options{})
			return
		}
		// Written the way `colorcli -checkpoint-every N` writes: encode
		// the latest cut, then a durable atomic replace of one file.
		var writeErr error
		ck := &congest.Checkpointer{}
		ck.OnCut = func(*congest.DomainCut) {
			r.Cuts++
			if r.Cuts%scales[cfg.Scale].ckptEvery != 0 || writeErr != nil {
				return
			}
			var raw []byte
			withLabel(ctx, traced, "ckpt.encode", func(context.Context) {
				e := rec.begin(id, "ckpt.encode", color)
				raw = core.EncodeCheckpoint(&core.Checkpoint{Inst: inst, Snap: ck.Latest()})
				r.EncodeS += rec.end(e)
			})
			withLabel(ctx, traced, "ckpt.write", func(context.Context) {
				w := rec.begin(id, "ckpt.write", color)
				writeErr = store.WriteFileAtomic(ckptFile, raw)
				r.WriteS += rec.end(w)
			})
			r.Writes++
			r.Bytes += int64(len(raw))
		}
		res, err = core.ListColorResumable(inst, core.Options{}, ck, nil)
		if err == nil && writeErr != nil {
			err = fmt.Errorf("checkpoint write: %w", writeErr)
		}
	})
	r.ColorS = rec.end(color)
	if err != nil {
		rec.end(op)
		return r, err
	}
	if cfg.tamper != nil {
		cfg.tamper(res.Colors)
	}
	verify := rec.begin(id, "op.verify", op)
	withLabel(ctx, traced, "op.verify", func(context.Context) { err = inst.VerifyColoring(res.Colors) })
	r.VerifyS = rec.end(verify)
	if err == nil && cfg.Workload == "congest-ckpt" {
		err = resumeCheck(ctx, cfg, ckptFile, res, &r, rec, id, op, traced)
	}
	r.Wall = rec.end(op)
	if err != nil {
		return r, err
	}

	r.Stats, r.Iterations = res.Stats, res.Iterations
	r.SeedBits = int64(res.Iterations) * int64(res.Params.LogC) * int64(res.Params.D)
	r.ColoredFracMin = 1
	for i, alive := range res.AliveAt {
		if alive > 0 && i < len(res.Colored) {
			r.ColoredFracMin = min(r.ColoredFracMin, float64(res.Colored[i])/float64(alive))
		}
	}
	r.colors = res.Colors
	return r, nil
}

// fingerprint is what every op must reproduce; it is computed after the
// op's measurement ends.
func (r opResult) fingerprint() string {
	distinct, hash := serve.ColorsSummary(r.colors)
	return fmt.Sprintf("hash=%08x colors=%d rounds=%d messages=%d words=%d iterations=%d",
		hash, distinct, r.Stats.Rounds, r.Stats.Messages, r.Stats.Words, r.Iterations)
}

// resumeCheck decodes the last checkpoint file written during the op,
// resumes from it, and demands the run's exact Colors and Stats.
func resumeCheck(ctx context.Context, cfg runConfig, file string, res *core.Result, r *opResult, rec *recorder, id, op int, traced bool) error {
	if r.Writes == 0 {
		return fmt.Errorf("no checkpoint written in %d cuts", r.Cuts)
	}
	var (
		cp  *core.Checkpoint
		err error
	)
	dec := rec.begin(id, "ckpt.decode", op)
	withLabel(ctx, traced, "ckpt.decode", func(context.Context) {
		var raw []byte
		if raw, err = os.ReadFile(file); err == nil {
			cp, err = core.DecodeCheckpoint(raw)
		}
	})
	r.DecodeS = rec.end(dec)
	if err != nil {
		return fmt.Errorf("checkpoint decode: %w", err)
	}
	var resumed *core.Result
	rs := rec.begin(id, "ckpt.resume", op)
	withLabel(ctx, traced, "ckpt.resume", func(context.Context) { resumed, err = core.ListColorFromCheckpoint(cp, nil) })
	r.ResumeS = rec.end(rs)
	if err != nil {
		return fmt.Errorf("checkpoint resume: %w", err)
	}
	if !slices.Equal(resumed.Colors, res.Colors) || resumed.Stats != res.Stats {
		return fmt.Errorf("resume mismatch: stats %+v, run gave %+v", resumed.Stats, res.Stats)
	}
	return nil
}

// runBatch runs one batch workload in this process: set-up repeated
// repeatedly (see scale.setupSeconds), one warm-up op, then timed ops for cfg.Seconds (at
// least minOps). With tracing, timed ops alternate untraced and traced
// so the same run measures the tracing overhead.
func runBatch(cfg runConfig) (*result, error) {
	ctx := context.Background()
	rec := newRecorder()
	var (
		inst  *graph.Instance
		setup []float64
		err   error
	)
	// Every set-up and op starts from a collected heap, so none pays for
	// the garbage of the one before it.
	for start := time.Now(); len(setup) < minSetups || time.Since(start).Seconds() < scales[cfg.Scale].setupSeconds; {
		runtime.GC()
		t0 := time.Now()
		if inst, err = setupBatch(cfg.Workload, scales[cfg.Scale], cfg.Seed, rec); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", cfg.Workload, err)
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	chk := newChecker(cfg)

	var (
		untraced, traced []opResult
		rtU, rtT         rtTotals
		split            = newCPUSplit()
		profiles         [][]byte
	)
	// Set-up spans carry id 0; op k (the warm-up is op 1) carries id k.
	doOp := func(id int, tr bool) error {
		var buf bytes.Buffer
		runtime.GC()
		before := sampleRuntime()
		if tr {
			if err := pprof.StartCPUProfile(&buf); err != nil {
				return fmt.Errorf("cpu profile: %w", err)
			}
		}
		r, err := runOp(ctx, cfg, inst, rec, id, tr)
		if tr {
			pprof.StopCPUProfile()
		}
		after := sampleRuntime()
		chk.attempted++
		if err != nil {
			chk.fail(fmt.Sprintf("op %d: %v", id, err))
			return nil
		}
		if !chk.check("op", r.fingerprint()) || id == 1 {
			return nil
		}
		if tr {
			prof, err := parseCPUProfile(buf.Bytes())
			if err != nil {
				return err
			}
			split.add(prof)
			profiles = append(profiles, buf.Bytes())
			rtT.add(before, after)
			traced = append(traced, r)
		} else {
			rtU.add(before, after)
			untraced = append(untraced, r)
		}
		return nil
	}
	if err := doOp(1, false); err != nil {
		return nil, err
	}
	// Untraced runs time at least minOps ops; traced runs alternate
	// untraced and traced ops and need minTracedOps of each.
	start, need := time.Now(), minOps
	if cfg.Trace {
		need = 2 * minTracedOps
	}
	for k := 1; k <= need || time.Since(start).Seconds() < cfg.Seconds; k++ {
		if err := doOp(k+1, cfg.Trace && k%2 == 0); err != nil {
			return nil, err
		}
	}

	res := chk.result(cfg.Workload)
	measured, rt := untraced, rtU
	if cfg.Trace {
		measured, rt = traced, rtT
	}
	if len(measured) == 0 {
		return res, nil
	}
	res.Metrics = batchMetrics(measured, setup, rec.snapshot())
	res.Metrics = append(res.Metrics, rt.summary().metrics(float64(len(measured)))...)
	if cfg.Trace {
		res.Metrics = append(res.Metrics, split.metrics(float64(len(traced)))...)
		res.Metrics = append(res.Metrics, metric{Name: "trace.overhead", Value: pairedOverhead(walls(untraced), walls(traced)), Unit: "ratio",
			Note: fmt.Sprintf("traced %d vs untraced %d ops", len(traced), len(untraced))})
		if cfg.TraceDir != "" {
			if err := writeTrace(cfg.TraceDir, cfg.Workload, rec.snapshot(), split, profiles); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

func walls(ops []opResult) []float64 {
	out := make([]float64, len(ops))
	for i, o := range ops {
		out[i] = o.Wall
	}
	return out
}

// batchMetrics reports the end-to-end and per-layer values of the
// measured ops. Counts come from the last op: the checker has already
// required every op to agree.
func batchMetrics(ops []opResult, setup []float64, spans []span) []metric {
	pick := func(f func(o opResult) float64) []float64 {
		out := make([]float64, len(ops))
		for i, o := range ops {
			out[i] = f(o)
		}
		return out
	}
	w := walls(ops)
	sum := 0.0
	for _, x := range w {
		sum += x
	}
	var gen, lists []float64
	for _, s := range spans {
		switch s.Name {
		case "setup.gen":
			gen = append(gen, float64(s.dur())/1e9)
		case "setup.lists":
			lists = append(lists, float64(s.dur())/1e9)
		}
	}
	last := ops[len(ops)-1]
	out := []metric{
		{Name: "solve_s", Value: median(w), Unit: "s",
			Note: fmt.Sprintf("min %.4f max %.4f n=%d", slices.Min(w), slices.Max(w), len(w))},
		{Name: "ops_per_s", Value: float64(len(w)) / sum, Unit: "1/s"},
		{Name: "setup_s", Value: median(setup), Unit: "s", Note: fmt.Sprintf("n=%d", len(setup))},
		{Name: "graph.gen_s", Value: median(gen), Unit: "s"},
		{Name: "graph.lists_s", Value: median(lists), Unit: "s"},
		{Name: "graph.verify_s", Value: median(pick(func(o opResult) float64 { return o.VerifyS })), Unit: "s"},
		{Name: "engine.rounds", Value: float64(last.Stats.Rounds), Unit: "count"},
		{Name: "engine.messages", Value: float64(last.Stats.Messages), Unit: "count"},
		{Name: "engine.words", Value: float64(last.Stats.Words), Unit: "count"},
		{Name: "engine.rounds_per_s", Value: median(pick(func(o opResult) float64 { return float64(o.Stats.Rounds) / o.ColorS })), Unit: "1/s"},
		{Name: "core.iterations", Value: float64(last.Iterations), Unit: "count"},
		{Name: "core.seed_bits", Value: float64(last.SeedBits), Unit: "count"},
		{Name: "core.colored_frac_min", Value: last.ColoredFracMin, Unit: "ratio"},
		{Name: "ckpt.cuts", Value: float64(last.Cuts), Unit: "count"},
		{Name: "ckpt.writes", Value: float64(last.Writes), Unit: "count"},
		{Name: "ckpt.bytes", Value: float64(last.Bytes), Unit: "B"},
	}
	if last.Writes == 0 {
		return out
	}
	return append(out,
		metric{Name: "ckpt.encode_s", Value: median(pick(func(o opResult) float64 { return o.EncodeS })), Unit: "s"},
		metric{Name: "store.write_s", Value: median(pick(func(o opResult) float64 { return o.WriteS })), Unit: "s"},
		metric{Name: "ckpt.decode_s", Value: median(pick(func(o opResult) float64 { return o.DecodeS })), Unit: "s"},
		metric{Name: "ckpt.resume_s", Value: median(pick(func(o opResult) float64 { return o.ResumeS })), Unit: "s"},
	)
}
