// sbwbench is the repository benchmark: four seeded workloads that
// drive the CONGEST engine's round loop, the seed-bit loop, the
// checkpoint write path and the serve layer. Each workload runs in its
// own child process (so its peak RSS is its own), every output is
// checked against the other ops of the run and, for seed 1, against the
// fingerprints pinned in pins.json, and every metric is printed as
//
//	<workload> <metric> <value> <unit>
//
// followed by one JSON summary line.
//
// Usage:
//
//	sbwbench [-workload W|all] [-seed N] [-seconds S] [-trace 0|1]
//	         [-json FILE] [-trace-dir DIR] [-workdir DIR]
//	sbwbench compare [-benchmark FILE] A.json B.json
//
// -trace 1 profiles the run and reports the per-layer ledger instead
// of the end-to-end metrics; -json appends the run's record to a set
// file that compare reads. See README.md for the metric definitions.
package main

import (
	"bytes"
	"context"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"smallbandwidth/internal/store"
)

const (
	minSetups    = 11 // set-ups per run, at least; setup_s is their median
	minOps       = 3  // timed ops per untraced batch run, at least
	minTracedOps = 2  // traced and untraced ops per traced batch run, at least
	// childTimeout keeps a wedged workload from outliving the run.
	childTimeout = 170 * time.Second
)

var workloads = []string{"congest-grid", "congest-dense", "congest-ckpt", "serve-mix"}

// endToEnd and perLayer are the metric names BENCHMARK.json lists; the
// summary line carries the first set untraced and the second traced.
var (
	endToEnd = []string{"solve_s", "ops_per_s", "setup_s", "peak_rss_mb"}
	perLayer = []string{
		"engine.rounds", "engine.messages", "engine.rounds_per_s", "engine.cpu_s",
		"core.iterations", "core.seed_bits", "core.cpu_s", "gf2.cpu_s", "congest.cpu_s",
		"runtime.cpu_util", "runtime.sched_cpu_s", "runtime.alloc_gc_cpu_s", "runtime.bg_cpu_s",
		"runtime.gc_cycles", "runtime.alloc_bytes", "runtime.sched_wait_p50_us", "runtime.sched_wait_p99_us",
		"runtime.mutex_wait_s", "ckpt.cuts", "ckpt.writes", "ckpt.bytes", "graph.gen_s", "profile.cpu_s",
	}
)

type serveSizes struct {
	gridSide, gnpN, plawN, cliqueN, mpcN int
}

// scale sizes every workload. "full" is the benchmark: about one second
// per batch op and at least 200 serve-mix requests in 20 s on a 2-vCPU
// host, with inputs whose work does not change with the seed (README.md
// gives the reasons). "tiny" keeps the tests fast.
type scale struct {
	// setupSeconds is how long a run keeps setting up, past minSetups.
	// One set-up takes milliseconds, so eleven would leave their median
	// to the host's noise.
	setupSeconds float64
	listSlack    int // list size minus (degree+1), for every batch workload
	gridSide     int
	gridC        uint32
	denseN       int
	denseD       int
	denseC       uint32
	ckptParts    int
	ckptPartN    int
	ckptDeg      int
	ckptC        uint32
	ckptEvery    int
	serve        serveSizes
}

var scales = map[string]scale{
	"full": {
		setupSeconds: 1, listSlack: 2,
		gridSide: 100, gridC: 16,
		denseN: 2000, denseD: 16, denseC: 64,
		ckptParts: 80, ckptPartN: 200, ckptDeg: 4, ckptC: 32, ckptEvery: 4,
		serve: serveSizes{gridSide: 30, gnpN: 1000, plawN: 1000, cliqueN: 32, mpcN: 64},
	},
	"tiny": {
		listSlack: 2,
		gridSide:  10, gridC: 16,
		denseN: 64, denseD: 6, denseC: 16,
		ckptParts: 4, ckptPartN: 20, ckptDeg: 4, ckptC: 32, ckptEvery: 4,
		serve: serveSizes{gridSide: 5, gnpN: 60, plawN: 60, cliqueN: 12, mpcN: 16},
	},
}

// runConfig is one workload run. A batch run hands it to its child
// process as JSON.
type runConfig struct {
	Workload string  `json:"workload"`
	Scale    string  `json:"scale"` // key into scales
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	WorkDir  string  `json:"workdir"`
	TraceDir string  `json:"trace_dir"`
	// tamper, when set, corrupts each coloring before verification; the
	// tests use it to prove a wrong output is counted as a failure.
	tamper func([]uint32)
}

// pins.json holds the seed-1 fingerprints at full scale: for batch ops
// the coloring's CRC-32 and distinct colors plus rounds, messages,
// words and iterations; for serve-mix the CRC-32 of each response.
//
//go:embed pins.json
var pinsJSON []byte

type pinFile struct {
	Seed      uint64                       `json:"seed"`
	Scale     string                       `json:"scale"`
	Workloads map[string]map[string]string `json:"workloads"`
}

// checker counts attempts and failures. Every output must equal the
// first one of the run under the same key, and on the pinned seed and
// scale it must equal the pin.
type checker struct {
	pins      map[string]string
	ref       map[string]string
	attempted int
	failed    int
	failures  []string
}

func newChecker(cfg runConfig) *checker {
	c := &checker{ref: map[string]string{}}
	var pf pinFile
	if err := json.Unmarshal(pinsJSON, &pf); err != nil {
		c.fail("pins.json: " + err.Error())
		return c
	}
	if cfg.Seed == pf.Seed && cfg.Scale == pf.Scale {
		c.pins = pf.Workloads[cfg.Workload]
		if c.pins == nil {
			c.pins = map[string]string{}
		}
	}
	return c
}

func (c *checker) check(key, got string) bool {
	if want, ok := c.ref[key]; ok && want != got {
		c.fail(fmt.Sprintf("%s: got %q, earlier in this run %q", key, got, want))
		return false
	}
	c.ref[key] = got
	if want, ok := c.pins[key]; c.pins != nil && want != got {
		if !ok {
			want = "no pin"
		}
		c.fail(fmt.Sprintf("%s: got %q, pinned %q", key, got, want))
		return false
	}
	return true
}

func (c *checker) fail(msg string) {
	c.failed++
	if len(c.failures) < 20 {
		c.failures = append(c.failures, msg)
	}
}

// result is one workload run's outcome.
type result struct {
	Workload     string            `json:"workload"`
	Attempted    int               `json:"attempted"`
	Failed       int               `json:"failed"`
	Failures     []string          `json:"failures,omitempty"`
	Fingerprints map[string]string `json:"fingerprints"`
	Metrics      []metric          `json:"metrics"`
}

func (c *checker) result(workload string) *result {
	return &result{Workload: workload, Attempted: c.attempted, Failed: c.failed, Failures: c.failures, Fingerprints: c.ref}
}

func (r *result) metric(name string) (metric, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "-child":
			os.Exit(childMain(os.Args[2:]))
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		}
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

// childMain is the entry point of the per-workload child processes.
func childMain(args []string) int {
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "sbwbench: -child needs a kind")
		return 2
	}
	switch args[0] {
	case "batch":
		if len(args) != 2 {
			fmt.Fprintln(os.Stderr, "sbwbench: -child batch needs one config")
			return 2
		}
		var (
			cfg runConfig
			res *result
		)
		err := json.Unmarshal([]byte(args[1]), &cfg)
		if _, ok := scales[cfg.Scale]; err == nil && !ok {
			err = fmt.Errorf("unknown scale %q", cfg.Scale)
		}
		if err == nil {
			res, err = runBatch(cfg)
		}
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "sbwbench:", err)
			return 1
		}
		return 0
	case "serve":
		if err := serveHost(args[1:], os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "sbwbench:", err)
			return 1
		}
		return 0
	}
	fmt.Fprintf(os.Stderr, "sbwbench: unknown child kind %q\n", args[0])
	return 2
}

// runWorkload runs one workload in child processes and returns its
// result with the child's peak RSS added.
func runWorkload(cfg runConfig, exe string) (*result, error) {
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(cfg.WorkDir)
	var (
		res *result
		err error
	)
	if cfg.Workload == "serve-mix" {
		res, err = runServeMix(cfg, exe)
	} else {
		res, err = runBatchChild(cfg, exe)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	res.addFailRatio()
	return res, nil
}

// addFailRatio reports failed ops over attempted ones; a run that
// attempted nothing counts as all failed.
func (r *result) addFailRatio() {
	ratio := 1.0
	if r.Attempted > 0 {
		ratio = float64(r.Failed) / float64(r.Attempted)
	}
	r.Metrics = append(r.Metrics, metric{Name: "fail_ratio", Value: ratio, Unit: "ratio",
		Note: fmt.Sprintf("%d of %d", r.Failed, r.Attempted)})
}

func runBatchChild(cfg runConfig, exe string) (*result, error) {
	spec, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, "-child", "batch", string(spec))
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("child: %w", err)
	}
	var res result
	if err := json.Unmarshal(out.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("child output: %w", err)
	}
	res.Metrics = append(res.Metrics, metric{Name: "peak_rss_mb", Value: peakRSSMB(cmd.ProcessState), Unit: "MB"})
	return &res, nil
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("sbwbench", flag.ContinueOnError)
	workload := fs.String("workload", "all", "workload to run: congest-grid, congest-dense, congest-ckpt, serve-mix, or all")
	seed := fs.Uint64("seed", 1, "seed for the graph generators and list instances")
	seconds := fs.Float64("seconds", 20, "measured time per workload, in seconds")
	trace := fs.Int("trace", 0, "1 profiles the run and reports the per-layer ledger")
	jsonOut := fs.String("json", "", "append this run's record to the set in `FILE` (read by compare)")
	traceDir := fs.String("trace-dir", "", "with -trace 1, write spans, layer split and CPU profiles to `DIR`")
	workDir := fs.String("workdir", filepath.Join(".bench_build", "work"), "scratch `DIR` for store and checkpoint files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "sbwbench: -trace must be 0 or 1")
		return 2
	}
	selected := workloads
	if *workload != "all" {
		selected = nil
		for _, w := range workloads {
			if w == *workload {
				selected = []string{w}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "sbwbench: unknown workload %q\n", *workload)
			return 2
		}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbwbench:", err)
		return 1
	}
	var results []*result
	for _, w := range selected {
		cfg := runConfig{Workload: w, Scale: "full", Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
			TraceDir: *traceDir, WorkDir: filepath.Join(*workDir, fmt.Sprintf("%s-%d", w, os.Getpid()))}
		res, err := runWorkload(cfg, exe)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sbwbench:", err)
			return 1
		}
		printResult(stdout, res)
		results = append(results, res)
	}
	if *jsonOut != "" {
		if err := appendRecord(*jsonOut, *seed, *trace, *seconds, results); err != nil {
			fmt.Fprintln(os.Stderr, "sbwbench:", err)
			return 1
		}
	}
	names := endToEnd
	if *trace == 1 {
		names = perLayer
	}
	sum, ok := summary(results, names)
	line, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbwbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !ok {
		return 1
	}
	return 0
}

func printResult(w io.Writer, res *result) {
	for _, m := range res.Metrics {
		line := fmt.Sprintf("%s %s %s %s", res.Workload, m.Name, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
		if m.Note != "" {
			line += "  (" + m.Note + ")"
		}
		fmt.Fprintln(w, line)
	}
	for _, f := range res.Failures {
		fmt.Fprintf(os.Stderr, "sbwbench: %s: FAIL %s\n", res.Workload, f)
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summaryLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// summary builds the final JSON line from the named metrics. With more
// than one workload the keys are prefixed "<workload>:". ok is false if
// any op failed or a named metric is missing.
func summary(results []*result, names []string) (summaryLine, bool) {
	s := summaryLine{Correct: true, Metrics: map[string]jsonMetric{}}
	for _, r := range results {
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		for _, name := range names {
			m, found := r.metric(name)
			if !found {
				fmt.Fprintf(os.Stderr, "sbwbench: %s: metric %s missing\n", r.Workload, name)
				s.Correct = false
				continue
			}
			key := name
			if len(results) > 1 {
				key = r.Workload + ":" + name
			}
			s.Metrics[key] = jsonMetric{m.Value, m.Unit}
		}
	}
	if s.Failed > 0 || s.Attempted == 0 {
		s.Correct = false
	}
	return s, s.Correct
}

// A set file holds run records; compare reads two of them.
type recordSet struct {
	Runs []runRecord `json:"runs"`
}

type runRecord struct {
	Seed      uint64                    `json:"seed"`
	Trace     int                       `json:"trace"`
	Seconds   float64                   `json:"seconds"`
	Host      hostFacts                 `json:"host"`
	Workloads map[string]workloadRecord `json:"workloads"`
}

type hostFacts struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

type workloadRecord struct {
	Attempted    int                   `json:"attempted"`
	Failed       int                   `json:"failed"`
	Metrics      map[string]jsonMetric `json:"metrics"`
	Fingerprints map[string]string     `json:"fingerprints"`
}

func readSet(path string) (*recordSet, error) {
	var set recordSet
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return &set, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(raw, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// appendRecord adds this run to the set file, replacing it atomically.
func appendRecord(path string, seed uint64, trace int, seconds float64, results []*result) error {
	set, err := readSet(path)
	if err != nil {
		return err
	}
	rec := runRecord{Seed: seed, Trace: trace, Seconds: seconds, Workloads: map[string]workloadRecord{},
		Host: hostFacts{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
			GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}}
	for _, r := range results {
		wr := workloadRecord{Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]jsonMetric{},
			Fingerprints: r.Fingerprints}
		for _, m := range r.Metrics {
			wr.Metrics[m.Name] = jsonMetric{m.Value, m.Unit}
		}
		rec.Workloads[r.Workload] = wr
	}
	set.Runs = append(set.Runs, rec)
	raw, err := json.MarshalIndent(set, "", "  ")
	if err != nil {
		return err
	}
	return store.WriteFileAtomic(path, append(raw, '\n'))
}

// writeTrace writes a traced run's spans (with self times), its CPU
// split and its raw CPU profiles into dir.
func writeTrace(dir, workload string, spans []span, split *cpuSplit, profiles [][]byte) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type spanOut struct {
		span
		SelfNS int64 `json:"self_ns"`
	}
	self := selfTimes(spans)
	out := struct {
		Spans []spanOut `json:"spans"`
		CPU   *cpuSplit `json:"cpu"`
	}{CPU: split}
	for i, s := range spans {
		out.Spans = append(out.Spans, spanOut{s, self[i]})
	}
	raw, err := json.MarshalIndent(out, "", " ")
	if err != nil {
		return err
	}
	if err := store.WriteFileAtomic(filepath.Join(dir, workload+".trace.json"), raw); err != nil {
		return err
	}
	for i, p := range profiles {
		if err := store.WriteFileAtomic(filepath.Join(dir, fmt.Sprintf("%s.%d.pprof", workload, i)), p); err != nil {
			return err
		}
	}
	return nil
}
