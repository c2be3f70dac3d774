package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// metric is one named measurement with its unit. Note carries the
// sample count and spread printed beside a median.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles returns the first quartile, median and third quartile of xs
// by the same rule as Python's statistics.quantiles(xs, n=4), so the
// spreads this tool prints match the ones computed from its output
// elsewhere. A single sample is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	switch len(xs) {
	case 0:
		return 0, 0, 0
	case 1:
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n, m := 4, len(s)+1
	q := [3]float64{}
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > len(s)-1 {
			j = len(s) - 1
		}
		delta := float64(i*m - j*n)
		q[i-1] = (s[j-1]*(float64(n)-delta) + s[j]*delta) / float64(n)
	}
	return q[0], q[1], q[2]
}

// tailQuantile picks the highest reportable tail percentile for n
// samples: the largest of p99.9, p99, p95, p90, p75 and p50 that still
// has at least ten samples beyond it under the nearest-rank rule.
func tailQuantile(n int) (q float64, ok bool) {
	for _, q := range []float64{0.999, 0.99, 0.95, 0.90, 0.75, 0.50} {
		if n-1-nearestRank(n, q) >= 10 {
			return q, true
		}
	}
	return 0, false
}

// pairedOverhead is the median over (untraced, traced) neighbours of
// traced/untraced − 1. Neighbours share the host's conditions, so the
// estimate drifts less than a ratio of two medians would.
func pairedOverhead(untraced, traced []float64) float64 {
	var r []float64
	for i := 0; i < len(untraced) && i < len(traced); i++ {
		r = append(r, traced[i]/untraced[i]-1)
	}
	return median(r)
}

// nearestRank is the 0-based index of the q-quantile of n sorted samples.
func nearestRank(n int, q float64) int {
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	return k
}

// percentile returns the nearest-rank q-quantile of xs.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[nearestRank(len(s), q)]
}

// span is one timed interval at a layer boundary the benchmark crosses.
// Spans of one op or request share ID; Parent indexes the enclosing
// span in the same recorder (-1 for a root).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Attr   string `json:"attr,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory; times are nanoseconds since the
// recorder was made. Safe for concurrent use: checkpoint spans are
// opened from the engine's leader goroutine.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (r *recorder) begin(id int, name string, parent int) int {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: id, Name: name, Parent: parent, Start: now, End: now})
	return len(r.spans) - 1
}

// end closes span i and returns its duration in seconds.
func (r *recorder) end(i int) float64 {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].End = now
	return float64(now-r.spans[i].Start) / 1e9
}

func (r *recorder) setAttr(i int, attr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[i].Attr = attr
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover, in nanoseconds.
func selfTimes(spans []span) []int64 {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		covered, reach := int64(0), s.Start
		for _, v := range ivs {
			if v.a > reach {
				reach = v.a
			}
			if v.b > reach {
				covered += v.b - reach
				reach = v.b
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// Runtime sampler: process CPU from getrusage plus the runtime/metrics
// counters that the engine's goroutine-per-node design drives.
const (
	rmGCCycles  = "/gc/cycles/total:gc-cycles"
	rmAllocs    = "/gc/heap/allocs:bytes"
	rmSchedLat  = "/sched/latencies:seconds"
	rmMutexWait = "/sync/mutex/wait/total:seconds"
)

type rtSample struct {
	at        time.Time
	cpu       time.Duration
	gcCycles  uint64
	allocs    uint64
	mutexWait float64
	sched     *metrics.Float64Histogram
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func sampleRuntime() rtSample {
	ms := []metrics.Sample{{Name: rmGCCycles}, {Name: rmAllocs}, {Name: rmSchedLat}, {Name: rmMutexWait}}
	metrics.Read(ms)
	s := rtSample{at: time.Now(), cpu: processCPU()}
	for _, m := range ms {
		switch m.Name {
		case rmGCCycles:
			s.gcCycles = m.Value.Uint64()
		case rmAllocs:
			s.allocs = m.Value.Uint64()
		case rmSchedLat:
			s.sched = m.Value.Float64Histogram()
		case rmMutexWait:
			s.mutexWait = m.Value.Float64()
		}
	}
	return s
}

// rtTotals accumulates runtime deltas over the measured intervals only.
type rtTotals struct {
	wall, cpu float64
	gcCycles  uint64
	allocs    uint64
	mutexWait float64
	sched     []uint64
	buckets   []float64
}

func (t *rtTotals) add(a, b rtSample) {
	t.wall += b.at.Sub(a.at).Seconds()
	t.cpu += (b.cpu - a.cpu).Seconds()
	t.gcCycles += b.gcCycles - a.gcCycles
	t.allocs += b.allocs - a.allocs
	t.mutexWait += b.mutexWait - a.mutexWait
	if t.sched == nil {
		t.sched = make([]uint64, len(b.sched.Counts))
		t.buckets = b.sched.Buckets
	}
	for i := range b.sched.Counts {
		t.sched[i] += b.sched.Counts[i] - a.sched.Counts[i]
	}
}

// rtSummary is the JSON-safe digest of rtTotals (histogram bucket edges
// include ±Inf, which JSON cannot carry).
type rtSummary struct {
	WallS      float64 `json:"wall_s"`
	CPUS       float64 `json:"cpu_s"`
	Procs      int     `json:"gomaxprocs"`
	GCCycles   float64 `json:"gc_cycles"`
	AllocBytes float64 `json:"alloc_bytes"`
	MutexWaitS float64 `json:"mutex_wait_s"`
	SchedP50us float64 `json:"sched_wait_p50_us"`
	SchedP99us float64 `json:"sched_wait_p99_us"`
}

func (t *rtTotals) summary() rtSummary {
	return rtSummary{
		WallS: t.wall, CPUS: t.cpu, Procs: runtime.GOMAXPROCS(0),
		GCCycles: float64(t.gcCycles), AllocBytes: float64(t.allocs), MutexWaitS: t.mutexWait,
		SchedP50us: histQuantile(t.sched, t.buckets, 0.50) * 1e6,
		SchedP99us: histQuantile(t.sched, t.buckets, 0.99) * 1e6,
	}
}

// metrics reports the runtime ledger; counters are divided by per, the
// number of ops (or request cycles) the intervals covered.
func (s rtSummary) metrics(per float64) []metric {
	util := 0.0
	if s.WallS > 0 && s.Procs > 0 {
		util = s.CPUS / (s.WallS * float64(s.Procs))
	}
	return []metric{
		{Name: "runtime.cpu_util", Value: util, Unit: "ratio"},
		{Name: "runtime.sched_wait_p50_us", Value: s.SchedP50us, Unit: "us"},
		{Name: "runtime.sched_wait_p99_us", Value: s.SchedP99us, Unit: "us"},
		{Name: "runtime.gc_cycles", Value: s.GCCycles / per, Unit: "count"},
		{Name: "runtime.alloc_bytes", Value: s.AllocBytes / per, Unit: "B"},
		{Name: "runtime.mutex_wait_s", Value: s.MutexWaitS / per, Unit: "s"},
	}
}

// histQuantile interpolates the q-quantile of a bucketed histogram
// linearly inside the bucket that holds it.
func histQuantile(counts []uint64, buckets []float64, q float64) float64 {
	var total uint64
	for _, c := range counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := q * float64(total)
	cum := 0.0
	for i, c := range counts {
		if c == 0 || cum+float64(c) < target {
			cum += float64(c)
			continue
		}
		lo, hi := buckets[i], buckets[i+1]
		if math.IsInf(lo, -1) {
			lo = hi
		}
		if math.IsInf(hi, 1) {
			hi = lo
		}
		return lo + (target-cum)/float64(c)*(hi-lo)
	}
	return buckets[len(buckets)-1]
}
