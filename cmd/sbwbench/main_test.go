package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"
)

// The workload tests re-execute the test binary as the child processes,
// exactly as the benchmark re-executes itself.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-child" {
		os.Exit(childMain(os.Args[2:]))
	}
	os.Exit(m.Run())
}

func tinyConfig(t *testing.T, workload string, trace bool) runConfig {
	t.Helper()
	return runConfig{Workload: workload, Scale: "tiny", Seed: 7, Trace: trace, WorkDir: filepath.Join(t.TempDir(), "work")}
}

// benchmarkSpec reads the repository's BENCHMARK.json.
func benchmarkSpec(t *testing.T) *benchSpec {
	t.Helper()
	spec, err := readSpec(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	spec := benchmarkSpec(t)
	var e2e, layer []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layer = append(layer, m.Name)
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json %v, program emits %v", e2e, endToEnd)
	}
	if !slices.Equal(layer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json %v, program emits %v", layer, perLayer)
	}
}

// TestWorkloadsEmitEveryMetric runs each workload at the tiny sizes,
// untraced and traced, through the same child processes as the
// benchmark, and checks every BENCHMARK.json metric is in the summary.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := tinyConfig(t, w, trace)
			cfg.TraceDir = t.TempDir()
			res, err := runWorkload(cfg, exe)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			names := endToEnd
			if trace {
				names = perLayer
			}
			sum, ok := summary([]*result{res}, names)
			if !ok {
				t.Fatalf("%s trace=%v: summary not ok: %+v, failures %v", w, trace, sum, res.Failures)
			}
			for _, name := range names {
				if _, found := sum.Metrics[name]; !found {
					t.Errorf("%s trace=%v: %s missing", w, trace, name)
				}
			}
			if fr, _ := res.metric("fail_ratio"); fr.Value != 0 {
				t.Errorf("%s trace=%v: fail_ratio %v", w, trace, fr.Value)
			}
			if trace {
				checkLayerSum(t, w, res)
				checkSelfTimes(t, w, cfg.TraceDir)
			}
		}
	}
}

// checkLayerSum: the per-layer CPU plus background CPU is the profile
// total, since every sample is charged exactly once.
func checkLayerSum(t *testing.T, w string, res *result) {
	t.Helper()
	total, _ := res.metric("profile.cpu_s")
	sum := 0.0
	for _, m := range res.Metrics {
		layer, isCPU := strings.CutSuffix(m.Name, ".cpu_s")
		if m.Name == "runtime.bg_cpu_s" || isCPU && layer != "profile" && !strings.HasPrefix(layer, "runtime.") {
			sum += m.Value
		}
	}
	if math.Abs(sum-total.Value) > 1e-9*math.Max(1, total.Value) {
		t.Errorf("%s: layers + bg = %v, profile total %v", w, sum, total.Value)
	}
}

// checkSelfTimes: within each op or request, the self times of its
// spans add up to the root span's duration.
func checkSelfTimes(t *testing.T, w, dir string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, w+".trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		Spans []struct {
			span
			SelfNS int64 `json:"self_ns"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(raw, &tr); err != nil {
		t.Fatal(err)
	}
	roots := map[int]int64{}
	selfSum := map[int]int64{}
	for _, s := range tr.Spans {
		if s.Name == "op" || s.Name == "req" {
			roots[s.ID] = s.dur()
		}
	}
	for _, s := range tr.Spans {
		if _, ok := roots[s.ID]; ok && s.ID > 0 {
			selfSum[s.ID] += s.SelfNS
		}
	}
	if len(roots) == 0 {
		t.Fatalf("%s: no op or req spans in the trace", w)
	}
	for id, d := range roots {
		if id > 0 && selfSum[id] != d {
			t.Errorf("%s: span %d self times sum to %d ns, wall %d ns", w, id, selfSum[id], d)
		}
	}
}

func TestTamperedColoringFails(t *testing.T) {
	cfg := tinyConfig(t, "congest-grid", false)
	cfg.tamper = func(c []uint32) { c[1] = c[0] } // nodes 0 and 1 are grid neighbours
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		t.Fatal(err)
	}
	res, err := runBatch(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res.addFailRatio()
	fr, _ := res.metric("fail_ratio")
	if res.Failed == 0 || fr.Value <= 0 {
		t.Fatalf("tampered colorings not counted: failed %d of %d, fail_ratio %v", res.Failed, res.Attempted, fr.Value)
	}
	if _, ok := summary([]*result{res}, endToEnd); ok {
		t.Fatal("summary of a failing run reports correct")
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{220, 0.95, true}, {200, 0.95, true}, {199, 0.90, true}, {100, 0.90, true},
		{40, 0.75, true}, {20, 0.50, true}, {19, 0, false}, {1000, 0.99, true}, {10000, 0.999, true},
	} {
		q, ok := tailQuantile(c.n)
		if q != c.q || ok != c.ok {
			t.Errorf("tailQuantile(%d) = %v, %v; want %v, %v", c.n, q, ok, c.q, c.ok)
		}
		if ok && c.n-1-nearestRank(c.n, q) < 10 {
			t.Errorf("n=%d: p%v has fewer than 10 samples beyond it", c.n, q*100)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "op", Parent: -1, Start: 0, End: 100},
		{Name: "op.color", Parent: 0, Start: 10, End: 60},
		{Name: "ckpt.encode", Parent: 1, Start: 20, End: 30},
		{Name: "ckpt.write", Parent: 1, Start: 30, End: 45},
		{Name: "op.verify", Parent: 0, Start: 60, End: 90},
		{Name: "req", Parent: -1, Start: 0, End: 100},
		{Name: "a", Parent: 5, Start: 0, End: 50},
		{Name: "b", Parent: 5, Start: 25, End: 75}, // overlaps a
	}
	want := []int64{20, 25, 10, 15, 30, 25, 50, 50}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Fatalf("selfTimes = %v, want %v", got, want)
	}
}

//go:noinline
func burnCPU(d time.Duration) uint64 {
	x := uint64(1)
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

// TestProfileDecoder decodes a real runtime/pprof CPU profile and
// checks that the split charges every sample exactly once, finds this
// program's own frames, and reads the span label.
func TestProfileDecoder(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	pprof.Do(context.Background(), pprof.Labels("span", "burn"), func(context.Context) { burnCPU(300 * time.Millisecond) })
	pprof.StopCPUProfile()
	prof, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(prof.samples) == 0 {
		t.Fatal("no samples decoded")
	}
	c := newCPUSplit()
	c.add(prof)
	sum := c.BgNS
	for _, ns := range c.Layers {
		sum += ns
	}
	if sum != c.TotalNS {
		t.Fatalf("layers + bg = %d ns, total %d ns", sum, c.TotalNS)
	}
	if c.Layers["bench"] < c.TotalNS/2 {
		t.Errorf("bench layer %d ns of %d ns total; burnCPU frames not attributed", c.Layers["bench"], c.TotalNS)
	}
	if c.BySpan["burn"] < c.TotalNS/2 {
		t.Errorf("span label burn %d ns of %d ns total", c.BySpan["burn"], c.TotalNS)
	}
	// A profile message cut short must be an error, not a partial split.
	zr, err := gzip.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	var cut bytes.Buffer
	zw := gzip.NewWriter(&cut)
	zw.Write(raw[:len(raw)/2])
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := parseCPUProfile(cut.Bytes()); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"smallbandwidth/internal/gf2.(*FormSheet).Fix":        "gf2",
		"smallbandwidth/internal/core.ListColorCONGEST.func1": "core",
		"smallbandwidth/internal/lint/load.New":               "lint",
		"main.runOp":                                          "bench",
		"runtime.mallocgc":                                    "",
		"sync.(*Mutex).Lock":                                  "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
	for fn, want := range map[string]string{
		"runtime.mallocgc":       "alloc_gc",
		"runtime.gcBgMarkWorker": "alloc_gc",
		"runtime.findRunnable":   "sched",
		"runtime.futex":          "sched",
		"runtime.memmove":        "runtime",
		"runtime/pprof.Do":       "",
	} {
		if got := runtimeClass(fn); got != want {
			t.Errorf("runtimeClass(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := &benchSpec{}
	spec.EndToEnd = append(spec.EndToEnd, struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}{Name: "solve_s", Unit: "s", Better: "lower", Bound: 0.1})
	run := func(v float64) runRecord {
		return runRecord{Workloads: map[string]workloadRecord{
			"w": {Attempted: 5, Metrics: map[string]jsonMetric{"solve_s": {Value: v, Unit: "s"}}}}}
	}
	set := func(vals ...float64) *recordSet {
		s := &recordSet{}
		for _, v := range vals {
			s.Runs = append(s.Runs, run(v))
		}
		return s
	}
	parent := set(10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.1, 9.9, 10)
	for _, c := range []struct {
		b    *recordSet
		want string
	}{
		{set(12, 12.1, 11.9, 12, 12.05, 11.95, 12, 12.1, 11.9, 12), "regression"},
		{set(8, 8.1, 7.9, 8, 8.05, 7.95, 8, 8.1, 7.9, 8), "gain"},
		{set(10.2, 9.8, 10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10), "within bound"},
	} {
		rows := compareSets(spec, parent, c.b)
		if len(rows) != 1 || rows[0].Verdict != c.want {
			t.Errorf("verdict %+v, want %s", rows, c.want)
		}
	}
	noisy := set(8, 12, 9, 11, 10, 8, 12, 9, 11, 10)
	if rows := compareSets(spec, noisy, set(10, 10, 10, 10, 10, 10, 10, 10, 10, 10)); rows[0].Verdict != "unresolved" {
		t.Errorf("noisy parent: verdict %s, want unresolved", rows[0].Verdict)
	}

	// A failed op in B fails the row even when B is faster: no gain.
	failing := set(8, 8.1, 7.9, 8, 8.05, 7.95, 8, 8.1, 7.9, 8)
	bad := failing.Runs[3].Workloads["w"]
	bad.Failed = 1
	failing.Runs[3].Workloads["w"] = bad
	if rows := compareSets(spec, parent, failing); rows[0].Verdict != "failed" || rows[0].FailedB != 1 {
		t.Errorf("failing change: %+v, want verdict failed with 1 failure", rows[0])
	}
	// A run of A that failed gives no value and no pair.
	parentFail := set(10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10.1, 9.9, 10)
	parentFail.Runs[0].Workloads["w"] = workloadRecord{Attempted: 5, Failed: 2,
		Metrics: map[string]jsonMetric{"solve_s": {Value: 100, Unit: "s"}}}
	if rows := compareSets(spec, parentFail, set(8, 8.1, 7.9, 8, 8.05, 7.95, 8, 8.1, 7.9, 8)); rows[0].Verdict != "gain" ||
		rows[0].Pairs != 9 || rows[0].FailedA != 2 || rows[0].A[1] != 10 {
		t.Errorf("failed parent run: %+v, want gain over 9 pairs with A median 10", rows[0])
	}

	// Traced runs are skipped: a slow traced record in B changes nothing.
	withTrace := set(10.2, 9.8, 10, 10.1, 9.9, 10, 10.05, 9.95, 10, 10)
	traced := run(50)
	traced.Trace = 1
	withTrace.Runs = append([]runRecord{traced}, withTrace.Runs...)
	if rows := compareSets(spec, parent, withTrace); rows[0].Verdict != "within bound" || rows[0].Pairs != 10 {
		t.Errorf("traced run in B: %+v, want within bound over 10 pairs", rows[0])
	}

	// A run that lacks the metric does not shift the pairing of the rest:
	// B's run 0 has no value, so B run i still pairs with A run i.
	gap := set(8, 8.1, 7.9, 8, 8.05, 7.95, 8, 8.1, 7.9, 8)
	gap.Runs[0].Workloads["w"] = workloadRecord{Attempted: 5, Metrics: map[string]jsonMetric{}}
	shifted := set(10, 20, 20, 20, 20, 20, 20, 20, 20, 20)
	if rows := compareSets(spec, shifted, gap); rows[0].Pairs != 9 || rows[0].Wins != 9 {
		t.Errorf("missing metric: %d wins of %d pairs, want 9 of 9", rows[0].Wins, rows[0].Pairs)
	}
}
