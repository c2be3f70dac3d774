package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// A CPU profile from runtime/pprof is a gzipped profile.proto message.
// This file decodes the few fields the layer split needs with a plain
// varint reader, so the benchmark adds no dependency.

type profSample struct {
	locs   []uint64
	values []int64
	labels map[string]string
}

type cpuProfile struct {
	samples []profSample
	// frames maps a location id to its function names, innermost
	// (inlined leaf) first.
	frames map[uint64][]string
	// cpuIndex is the sample value holding CPU nanoseconds.
	cpuIndex int
}

// pbuf is a sticky-error protobuf wire reader.
type pbuf struct {
	b   []byte
	err error
}

func (p *pbuf) varint() uint64 {
	if p.err != nil {
		return 0
	}
	v, n := binary.Uvarint(p.b)
	if n <= 0 {
		p.err = errors.New("profile: bad varint")
		return 0
	}
	p.b = p.b[n:]
	return v
}

func (p *pbuf) bytes() []byte {
	n := p.varint()
	if p.err != nil {
		return nil
	}
	if n > uint64(len(p.b)) {
		p.err = errors.New("profile: truncated field")
		return nil
	}
	v := p.b[:n]
	p.b = p.b[n:]
	return v
}

// field reads the next tag; the caller then reads the value or skips it.
func (p *pbuf) field() (num int, wire int) {
	t := p.varint()
	return int(t >> 3), int(t & 7)
}

func (p *pbuf) skip(wire int) {
	switch wire {
	case 0:
		p.varint()
	case 1:
		p.fixed(8)
	case 2:
		p.bytes()
	case 5:
		p.fixed(4)
	default:
		if p.err == nil {
			p.err = fmt.Errorf("profile: unsupported wire type %d", wire)
		}
	}
}

func (p *pbuf) fixed(n int) {
	if p.err == nil && len(p.b) < n {
		p.err = errors.New("profile: truncated fixed field")
		return
	}
	if p.err == nil {
		p.b = p.b[n:]
	}
}

// uints reads a repeated integer field in either packed or single form.
func (p *pbuf) uints(wire int, dst []uint64) []uint64 {
	if wire == 2 {
		sub := pbuf{b: p.bytes()}
		for len(sub.b) > 0 && sub.err == nil {
			dst = append(dst, sub.varint())
		}
		if sub.err != nil && p.err == nil {
			p.err = sub.err
		}
		return dst
	}
	return append(dst, p.varint())
}

// parseCPUProfile decodes a gzipped CPU profile.
func parseCPUProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var (
		strs       []string
		sampleType [][2]uint64 // (type, unit) string indices
		funcNames  = map[uint64]uint64{}
		locFuncs   = map[uint64][]uint64{}
		samples    []profSample
		rawLabels  [][][2]uint64 // per sample: (key, str) indices
	)
	p := pbuf{b: raw}
	for len(p.b) > 0 && p.err == nil {
		num, wire := p.field()
		switch {
		case num == 1 && wire == 2: // sample_type
			vt := pbuf{b: p.bytes()}
			var t [2]uint64
			for len(vt.b) > 0 && vt.err == nil {
				n, w := vt.field()
				if (n == 1 || n == 2) && w == 0 {
					t[n-1] = vt.varint()
				} else {
					vt.skip(w)
				}
			}
			if vt.err != nil {
				return nil, vt.err
			}
			sampleType = append(sampleType, t)
		case num == 2 && wire == 2: // sample
			sp := pbuf{b: p.bytes()}
			var s profSample
			var labels [][2]uint64
			var vals []uint64
			for len(sp.b) > 0 && sp.err == nil {
				n, w := sp.field()
				switch n {
				case 1:
					s.locs = sp.uints(w, s.locs)
				case 2:
					vals = sp.uints(w, vals)
				case 3:
					lp := pbuf{b: sp.bytes()}
					var kv [2]uint64
					for len(lp.b) > 0 && lp.err == nil {
						ln, lw := lp.field()
						if (ln == 1 || ln == 2) && lw == 0 {
							kv[ln-1] = lp.varint()
						} else {
							lp.skip(lw)
						}
					}
					if lp.err != nil {
						return nil, lp.err
					}
					labels = append(labels, kv)
				default:
					sp.skip(w)
				}
			}
			if sp.err != nil {
				return nil, sp.err
			}
			for _, v := range vals {
				s.values = append(s.values, int64(v))
			}
			samples = append(samples, s)
			rawLabels = append(rawLabels, labels)
		case num == 4 && wire == 2: // location
			lp := pbuf{b: p.bytes()}
			var id uint64
			var fns []uint64
			for len(lp.b) > 0 && lp.err == nil {
				n, w := lp.field()
				switch {
				case n == 1 && w == 0:
					id = lp.varint()
				case n == 4 && w == 2:
					line := pbuf{b: lp.bytes()}
					for len(line.b) > 0 && line.err == nil {
						ln, lw := line.field()
						if ln == 1 && lw == 0 {
							fns = append(fns, line.varint())
						} else {
							line.skip(lw)
						}
					}
					if line.err != nil {
						return nil, line.err
					}
				default:
					lp.skip(w)
				}
			}
			if lp.err != nil {
				return nil, lp.err
			}
			locFuncs[id] = fns
		case num == 5 && wire == 2: // function
			fp := pbuf{b: p.bytes()}
			var id, name uint64
			for len(fp.b) > 0 && fp.err == nil {
				n, w := fp.field()
				switch {
				case n == 1 && w == 0:
					id = fp.varint()
				case n == 2 && w == 0:
					name = fp.varint()
				default:
					fp.skip(w)
				}
			}
			if fp.err != nil {
				return nil, fp.err
			}
			funcNames[id] = name
		case num == 6 && wire == 2: // string_table
			strs = append(strs, string(p.bytes()))
		default:
			p.skip(wire)
		}
	}
	if p.err != nil {
		return nil, p.err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	prof := &cpuProfile{frames: map[uint64][]string{}, cpuIndex: -1}
	for i, t := range sampleType {
		if str(t[0]) == "cpu" && str(t[1]) == "nanoseconds" {
			prof.cpuIndex = i
		}
	}
	if prof.cpuIndex < 0 {
		return nil, errors.New("profile: no cpu/nanoseconds sample type")
	}
	for id, fns := range locFuncs {
		names := make([]string, len(fns))
		for i, f := range fns {
			names[i] = str(funcNames[f])
		}
		prof.frames[id] = names
	}
	for i := range samples {
		if len(rawLabels[i]) > 0 {
			samples[i].labels = map[string]string{}
			for _, kv := range rawLabels[i] {
				samples[i].labels[str(kv[0])] = str(kv[1])
			}
		}
	}
	prof.samples = samples
	return prof, nil
}

// cpuSplit is the CPU time of one or more profiles, split three ways:
// by the repo layer nearest the leaf (Layers plus BgNS sum to TotalNS),
// by runtime activity class of the leaf-side runtime frames (SchedNS,
// AllocGCNS; overlapping the layer split), and by span label (BySpan).
type cpuSplit struct {
	TotalNS   int64            `json:"total_ns"`
	Layers    map[string]int64 `json:"layers_ns"`
	BgNS      int64            `json:"bg_ns"`
	SchedNS   int64            `json:"sched_ns"`
	AllocGCNS int64            `json:"alloc_gc_ns"`
	BySpan    map[string]int64 `json:"by_span_ns"`
}

func newCPUSplit() *cpuSplit {
	return &cpuSplit{Layers: map[string]int64{}, BySpan: map[string]int64{}}
}

const repoPrefix = "smallbandwidth/internal/"

// layerOf names the repo layer a function belongs to: the internal
// package for library code, "bench" for this program's own frames
// (named main.* in the binary and by import path in its test binary),
// and "" for everything else (runtime and standard library).
func layerOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, repoPrefix); ok {
		if i := strings.IndexAny(rest, "./"); i > 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "smallbandwidth/cmd/sbwbench.") {
		return "bench"
	}
	return ""
}

// Runtime functions by the work they do. A sample is classified by the
// first listed function among its leaf-side run of runtime frames,
// whoever called into the runtime.
var (
	allocGCFuncs = []string{
		"mallocgc", "gcBgMarkWorker", "gcAssistAlloc", "gcDrain", "gcStart", "gcMarkDone",
		"gcMarkTermination", "markroot", "scanobject", "scanblock", "scanstack", "greyobject",
		"bgsweep", "sweepone", "bgscavenge", "wbBufFlush", "bulkBarrierPreWrite", "gcWriteBarrier",
		"(*mheap)", "(*mcache)", "(*mcentral)", "(*mspan)", "(*sweepLocked)", "(*gcWork)",
	}
	schedFuncs = []string{
		"schedule", "findRunnable", "park_m", "gopark", "goready", "ready", "wakep", "startm",
		"stopm", "mPark", "notesleep", "notewakeup", "futexsleep", "futexwakeup", "futex",
		"goschedImpl", "gosched_m", "newproc", "goexit0", "runqgrab", "runqsteal", "stealWork",
		"netpoll", "handoffp", "retake", "sysmon", "exitsyscall", "entersyscall", "semacquire",
		"semrelease", "selectgo", "chansend", "chanrecv", "lock2", "unlock2", "casgstatus",
		"execute", "procyield", "osyield", "usleep", "runqput", "globrunqget", "checkTimers",
	}
)

func runtimeClass(fn string) string {
	name, ok := strings.CutPrefix(fn, "runtime.")
	if !ok {
		return ""
	}
	for _, f := range allocGCFuncs {
		if strings.HasPrefix(name, f) {
			return "alloc_gc"
		}
	}
	for _, f := range schedFuncs {
		if strings.HasPrefix(name, f) {
			return "sched"
		}
	}
	return "runtime"
}

// add charges every sample of prof to the split.
func (c *cpuSplit) add(prof *cpuProfile) {
	for _, s := range prof.samples {
		if prof.cpuIndex >= len(s.values) {
			continue
		}
		ns := s.values[prof.cpuIndex]
		c.TotalNS += ns
		layer, class, inRuntime := "", "", true
		for _, loc := range s.locs {
			for _, fn := range prof.frames[loc] {
				if inRuntime && class == "" {
					switch rc := runtimeClass(fn); rc {
					case "":
						inRuntime = false
					case "sched", "alloc_gc":
						class = rc
					}
				}
				if layer == "" {
					layer = layerOf(fn)
				}
			}
			if layer != "" {
				break
			}
		}
		if layer == "" {
			c.BgNS += ns
		} else {
			c.Layers[layer] += ns
		}
		switch class {
		case "sched":
			c.SchedNS += ns
		case "alloc_gc":
			c.AllocGCNS += ns
		}
		c.BySpan[s.labels["span"]] += ns
	}
}

// ledgerLayers are the layers whose CPU is always reported, even at
// zero, so every run of every workload prints the same metric set.
var ledgerLayers = []string{
	"engine", "congest", "core", "gf2", "linial", "graph", "clique", "mpc", "netdecomp",
	"snapshot", "store", "serve", "bench",
}

// metrics reports CPU seconds per op (per is the op or cycle count).
func (c *cpuSplit) metrics(per float64) []metric {
	sec := func(ns int64) float64 { return float64(ns) / 1e9 / per }
	out := []metric{{Name: "profile.cpu_s", Value: sec(c.TotalNS), Unit: "s"}}
	seen := map[string]bool{}
	for _, l := range ledgerLayers {
		seen[l] = true
		out = append(out, metric{Name: l + ".cpu_s", Value: sec(c.Layers[l]), Unit: "s"})
	}
	var extra []string
	for l := range c.Layers {
		if !seen[l] {
			extra = append(extra, l)
		}
	}
	sort.Strings(extra)
	for _, l := range extra {
		out = append(out, metric{Name: l + ".cpu_s", Value: sec(c.Layers[l]), Unit: "s"})
	}
	return append(out,
		metric{Name: "runtime.bg_cpu_s", Value: sec(c.BgNS), Unit: "s"},
		metric{Name: "runtime.sched_cpu_s", Value: sec(c.SchedNS), Unit: "s"},
		metric{Name: "runtime.alloc_gc_cpu_s", Value: sec(c.AllocGCNS), Unit: "s"},
	)
}
