package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"smallbandwidth/internal/core"
	"smallbandwidth/internal/graph"
	"smallbandwidth/internal/serve"
	"smallbandwidth/internal/store"
)

// serveCycle is the fixed request cycle of serve-mix. Its weights put
// the median mid-way through the grid-congest class and the p95 inside
// the clique class.
func serveCycle(sz serveSizes) []string {
	clique, mpc := fmt.Sprintf("reg%d", sz.cliqueN), fmt.Sprintf("reg%d", sz.mpcN)
	return []string{
		"ping",
		"stats plaw",
		"color gnp greedy",
		"color grid congest",
		"color grid congest",
		"color grid congest",
		"color gnp decomposed",
		"color plaw congest",
		"color " + clique + " clique",
		"color " + mpc + " mpc",
	}
}

// serveConnOffsets are the cycle positions the client connections start
// at, so the two never issue the same request class in lockstep.
var serveConnOffsets = []int{0, 5}

type namedGraph struct {
	name string
	g    *graph.Graph
}

// serveGraphs generates the resident graphs from the seed.
func serveGraphs(sz serveSizes, seed uint64, rec *recorder) ([]namedGraph, error) {
	var out []namedGraph
	add := func(name string, gen func() (*graph.Graph, error)) error {
		s := rec.begin(0, "setup.gen", -1)
		rec.setAttr(s, name)
		g, err := gen()
		rec.end(s)
		out = append(out, namedGraph{name, g})
		return err
	}
	gens := []struct {
		name string
		gen  func() (*graph.Graph, error)
	}{
		{"grid", func() (*graph.Graph, error) { return graph.Grid2D(sz.gridSide, sz.gridSide), nil }},
		{"gnp", func() (*graph.Graph, error) { return graph.GNP(sz.gnpN, 4/float64(sz.gnpN), seed), nil }},
		{"plaw", func() (*graph.Graph, error) {
			return graph.ChungLu(graph.PowerLawWeights(sz.plawN, 2.5, 4), seed), nil
		}},
		{fmt.Sprintf("reg%d", sz.cliqueN), func() (*graph.Graph, error) { return graph.RandomRegular(sz.cliqueN, 6, seed) }},
		{fmt.Sprintf("reg%d", sz.mpcN), func() (*graph.Graph, error) { return graph.RandomRegular(sz.mpcN, 6, seed) }},
	}
	for _, g := range gens {
		if err := add(g.name, g.gen); err != nil {
			return nil, fmt.Errorf("generate %s: %w", g.name, err)
		}
	}
	return out, nil
}

// hostPhase is what the serve host reports for one measured phase.
type hostPhase struct {
	Runtime rtSummary `json:"runtime"`
	CPU     *cpuSplit `json:"cpu,omitempty"`
	Profile []byte    `json:"profile,omitempty"`
	Spans   []span    `json:"spans"`
}

// serveHost is the child side of serve-mix: it loads the store files
// named on the command line (name=path), serves them on a loopback
// port, and takes phase commands on stdin. "mark" starts a measured
// phase ("mark trace" also profiles it); "stop" ends it and prints one
// JSON hostPhase line with the totals over every phase of that kind so
// far and this phase's profile. End of input shuts the server down.
func serveHost(args []string, in io.Reader, out io.Writer) error {
	rec := newRecorder()
	srv := serve.New(serve.Options{})
	for _, a := range args {
		name, path, ok := strings.Cut(a, "=")
		if !ok {
			return fmt.Errorf("serve host: want name=path, got %q", a)
		}
		s := rec.begin(0, "setup.store_load", -1)
		rec.setAttr(s, name)
		_, err := srv.LoadStore(name, path)
		rec.end(s)
		if err != nil {
			return err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go pprof.Do(ctx, pprof.Labels("span", "serve"), func(ctx context.Context) { served <- srv.Serve(ctx, ln) })
	fmt.Fprintf(out, "addr %s\n", ln.Addr())

	var (
		before    rtSample
		buf       bytes.Buffer
		profiling bool
		cmdErr    error
		rt        [2]rtTotals // untraced, traced
		cpu       = newCPUSplit()
	)
	sc := bufio.NewScanner(in)
	for cmdErr == nil && sc.Scan() {
		switch f := strings.Fields(sc.Text()); {
		case len(f) > 0 && f[0] == "mark":
			buf.Reset()
			profiling = len(f) == 2 && f[1] == "trace"
			if profiling {
				if cmdErr = pprof.StartCPUProfile(&buf); cmdErr != nil {
					break
				}
			}
			before = sampleRuntime()
			fmt.Fprintln(out, "marked")
		case len(f) == 1 && f[0] == "stop":
			after := sampleRuntime()
			kind := 0
			if profiling {
				kind = 1
			}
			rt[kind].add(before, after)
			ph := hostPhase{Runtime: rt[kind].summary(), Spans: rec.snapshot()}
			if profiling {
				pprof.StopCPUProfile()
				prof, err := parseCPUProfile(buf.Bytes())
				if err != nil {
					cmdErr = err
					break
				}
				cpu.add(prof)
				ph.CPU, ph.Profile = cpu, buf.Bytes()
			}
			cmdErr = json.NewEncoder(out).Encode(ph)
		default:
			cmdErr = fmt.Errorf("serve host: unknown command %q", sc.Text())
		}
	}
	cancel()
	return errors.Join(cmdErr, sc.Err(), <-served)
}

// host is the parent's handle on a running serve host process.
type host struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *bufio.Reader
	addr  string
}

// startHost starts a serve host and returns once it has answered a ping
// on a fresh connection; setup is the time from process start to that
// answer, which includes every LoadStore and instance precompute.
func startHost(exe string, stores []string) (h *host, setup float64, err error) {
	cmd := exec.Command(exe, append([]string{"-child", "serve"}, stores...)...)
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, 0, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	h = &host{cmd: cmd, stdin: stdin, out: bufio.NewReader(stdout)}
	defer func() {
		if err != nil {
			h.kill()
		}
	}()
	line, err := h.out.ReadString('\n')
	if err != nil {
		return h, 0, fmt.Errorf("serve host did not start: %w", err)
	}
	addr, ok := strings.CutPrefix(strings.TrimSpace(line), "addr ")
	if !ok {
		return h, 0, fmt.Errorf("serve host: unexpected line %q", line)
	}
	h.addr = addr
	c, err := dialClient(addr)
	if err != nil {
		return h, 0, err
	}
	defer c.close()
	resp, err := c.do("ping")
	if err != nil {
		return h, 0, err
	}
	setup = time.Since(t0).Seconds()
	if resp != "ok pong" {
		return h, 0, fmt.Errorf("serve host: ping answered %q", resp)
	}
	return h, setup, nil
}

// phase runs fn between a mark and a stop command and returns what the
// host measured over it.
func (h *host) phase(trace bool, fn func() error) (*hostPhase, error) {
	cmd := "mark\n"
	if trace {
		cmd = "mark trace\n"
	}
	if _, err := io.WriteString(h.stdin, cmd); err != nil {
		return nil, err
	}
	if line, err := h.out.ReadString('\n'); err != nil || strings.TrimSpace(line) != "marked" {
		return nil, fmt.Errorf("serve host: mark not acknowledged (%q, %v)", line, err)
	}
	fnErr := fn()
	if _, err := io.WriteString(h.stdin, "stop\n"); err != nil {
		return nil, errors.Join(fnErr, err)
	}
	line, err := h.out.ReadBytes('\n')
	if err != nil {
		return nil, errors.Join(fnErr, fmt.Errorf("serve host: no phase report: %w", err))
	}
	var ph hostPhase
	if err := json.Unmarshal(line, &ph); err != nil {
		return nil, errors.Join(fnErr, err)
	}
	return &ph, fnErr
}

// stop shuts the host down, waits for it, and returns its peak RSS in MB.
func (h *host) stop() (float64, error) {
	h.stdin.Close()
	err := h.cmd.Wait()
	return peakRSSMB(h.cmd.ProcessState), err
}

func (h *host) kill() {
	h.stdin.Close()
	h.cmd.Process.Kill()
	h.cmd.Wait()
}

// peakRSSMB reads ru_maxrss (KiB on Linux) from the child's wait4 usage.
func peakRSSMB(ps *os.ProcessState) float64 {
	if ps == nil {
		return 0
	}
	ru, ok := ps.SysUsage().(*syscall.Rusage)
	if !ok {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// client is one closed-loop protocol connection.
type client struct {
	conn net.Conn
	r    *bufio.Reader
}

func dialClient(addr string) (*client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	// A wedged server fails the run instead of hanging it.
	if err := conn.SetDeadline(time.Now().Add(childTimeout)); err != nil {
		conn.Close()
		return nil, err
	}
	return &client{conn: conn, r: bufio.NewReader(conn)}, nil
}

func (c *client) close() { c.conn.Close() }

func (c *client) do(req string) (string, error) {
	if _, err := io.WriteString(c.conn, req+"\n"); err != nil {
		return "", err
	}
	line, err := c.r.ReadString('\n')
	if err != nil {
		return "", fmt.Errorf("%s: %w", req, err)
	}
	return strings.TrimSuffix(line, "\n"), nil
}

// reqSample is one answered request.
type reqSample struct {
	req, resp string
	ms        float64
}

// loop runs whole request cycles on every connection at once, each from
// its own offset: one cycle each when until is zero, otherwise cycles
// until the deadline has passed. It returns every answered request and
// the number of cycles completed.
func loop(clients []*client, cycle []string, until time.Time, rec *recorder, nextID *int) ([]reqSample, int, error) {
	var (
		mu      sync.Mutex
		samples []reqSample
		cycles  int
		wg      sync.WaitGroup
		errs    = make([]error, len(clients))
	)
	for ci, c := range clients {
		ci, c := ci, c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n == 0 || (!until.IsZero() && time.Now().Before(until)); n++ {
				for k := range cycle {
					req := cycle[(serveConnOffsets[ci]+k)%len(cycle)]
					mu.Lock()
					*nextID++
					id := *nextID
					mu.Unlock()
					s := rec.begin(id, "req", -1)
					rec.setAttr(s, requestModel(req))
					resp, err := c.do(req)
					ms := rec.end(s) * 1e3
					if err != nil {
						errs[ci] = err
						return
					}
					mu.Lock()
					samples = append(samples, reqSample{req, resp, ms})
					mu.Unlock()
				}
				mu.Lock()
				cycles++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return samples, cycles, errors.Join(errs...)
}

// requestModel names a request's latency class: the color model, or
// "meta" for ping/stats/info.
func requestModel(req string) string {
	if f := strings.Fields(req); len(f) >= 3 && f[0] == "color" {
		return f[2]
	}
	return "meta"
}

// respField reads an integer key=value field of a response line; an
// absent or non-integer field reads as 0.
func respField(resp, key string) int64 {
	for _, f := range strings.Fields(resp) {
		if v, ok := strings.CutPrefix(f, key+"="); ok {
			n, _ := strconv.ParseInt(v, 10, 64) // 0 on error, as documented
			return n
		}
	}
	return 0
}

// runServeMix runs serve-mix: store files are prepared untimed, the host
// is started repeatedly like a batch set-up (setup_s is the median
// start-to-first-ping),
// and the last host serves one warm-up cycle followed by the measured
// closed loop.
func runServeMix(cfg runConfig, exe string) (*result, error) {
	rec := newRecorder()
	sz := scales[cfg.Scale].serve
	graphs, err := serveGraphs(sz, cfg.Seed, rec)
	if err != nil {
		return nil, err
	}
	var stores []string
	params := map[string]*core.Params{}
	for _, ng := range graphs {
		path := filepath.Join(cfg.WorkDir, ng.name+".csr")
		if err := store.Write(path, ng.g); err != nil {
			return nil, err
		}
		stores = append(stores, ng.name+"="+path)
		if params[ng.name], err = core.ComputeParams(graph.DeltaPlusOneInstance(ng.g), core.Options{}); err != nil {
			return nil, err
		}
	}

	var (
		h     *host
		setup []float64
	)
	for start := time.Now(); len(setup) < minSetups || time.Since(start).Seconds() < scales[cfg.Scale].setupSeconds; {
		if h != nil {
			if _, err := h.stop(); err != nil {
				return nil, fmt.Errorf("serve host exit: %w", err)
			}
		}
		var s float64
		if h, s, err = startHost(exe, stores); err != nil {
			return nil, err
		}
		setup = append(setup, s)
	}
	stopped := false
	defer func() {
		if !stopped {
			h.kill()
		}
	}()

	var clients []*client
	for range serveConnOffsets {
		c, err := dialClient(h.addr)
		if err != nil {
			return nil, err
		}
		defer c.close()
		clients = append(clients, c)
	}
	cycle := serveCycle(sz)
	chk := newChecker(cfg)
	nextID := 0
	run := func(conns []*client, d float64) ([]reqSample, int, float64, error) {
		var until time.Time
		t0 := time.Now()
		if d > 0 {
			until = t0.Add(time.Duration(d * float64(time.Second)))
		}
		samples, cycles, err := loop(conns, cycle, until, rec, &nextID)
		wall := time.Since(t0).Seconds()
		for _, s := range samples {
			chk.attempted++
			if !strings.HasPrefix(s.resp, "ok") {
				chk.fail(fmt.Sprintf("%s: %s", s.req, s.resp))
				continue
			}
			chk.check(s.req, fmt.Sprintf("%08x", crc32.ChecksumIEEE([]byte(s.resp))))
		}
		return samples, cycles, wall, err
	}
	// The warm-up cycle runs on one connection, so requests first overlap
	// only after every request kind has run once. gf2.NewField fills its
	// field cache without a lock, and two first uses of a field degree
	// at once race (internal/gf2/field.go).
	if _, _, _, err := run(clients[:1], 0); err != nil {
		return nil, err
	}
	// A traced run alternates untraced and traced phases so that each
	// traced phase has an untraced neighbour to measure overhead against.
	type measured struct {
		samples  []reqSample
		cycles   int
		wall     float64
		host     *hostPhase
		profiles [][]byte
		perReq   []float64 // wall per request, per phase
	}
	var kinds [2]measured // untraced, traced
	plan := []int{0}
	if cfg.Trace {
		plan = []int{0, 1, 0, 1, 0, 1}
	}
	for _, kind := range plan {
		m := &kinds[kind]
		var (
			samples []reqSample
			cycles  int
			wall    float64
		)
		ph, err := h.phase(kind == 1, func() error {
			var err error
			samples, cycles, wall, err = run(clients, cfg.Seconds/float64(len(plan)))
			return err
		})
		if err != nil {
			return nil, err
		}
		m.samples = append(m.samples, samples...)
		m.cycles += cycles
		m.wall += wall
		m.host = ph
		m.perReq = append(m.perReq, wall/float64(len(samples)))
		if ph.Profile != nil {
			m.profiles = append(m.profiles, ph.Profile)
		}
	}
	stopped = true
	rss, err := h.stop()
	if err != nil {
		return nil, fmt.Errorf("serve host exit: %w", err)
	}

	res := chk.result(cfg.Workload)
	m := kinds[0]
	if cfg.Trace {
		m = kinds[1]
	}
	res.Metrics = serveMetrics(m.samples, m.wall, cycle, params)
	per := float64(m.cycles)
	var genS, loadS float64
	for _, s := range rec.snapshot() {
		if s.Name == "setup.gen" {
			genS += float64(s.dur()) / 1e9
		}
	}
	for _, s := range m.host.Spans {
		if s.Name == "setup.store_load" {
			loadS += float64(s.dur()) / 1e9
		}
	}
	rt := m.host.Runtime
	res.Metrics = append(res.Metrics,
		metric{Name: "setup_s", Value: median(setup), Unit: "s", Note: fmt.Sprintf("n=%d", len(setup))},
		metric{Name: "peak_rss_mb", Value: rss, Unit: "MB"},
		metric{Name: "graph.gen_s", Value: genS, Unit: "s"},
		metric{Name: "store.load_s", Value: loadS, Unit: "s"},
		metric{Name: "ckpt.cuts", Value: 0, Unit: "count"},
		metric{Name: "ckpt.writes", Value: 0, Unit: "count"},
		metric{Name: "ckpt.bytes", Value: 0, Unit: "B"},
	)
	res.Metrics = append(res.Metrics, rt.metrics(per)...)
	if cfg.Trace {
		res.Metrics = append(res.Metrics, m.host.CPU.metrics(per)...)
		res.Metrics = append(res.Metrics, metric{Name: "trace.overhead", Value: pairedOverhead(kinds[0].perReq, kinds[1].perReq),
			Unit: "ratio", Note: fmt.Sprintf("traced %d vs untraced %d requests", len(kinds[1].samples), len(kinds[0].samples))})
		if cfg.TraceDir != "" {
			spans := append(rec.snapshot(), m.host.Spans...)
			if err := writeTrace(cfg.TraceDir, cfg.Workload, spans, m.host.CPU, m.profiles); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// serveMetrics reports request latency and the per-cycle model costs
// read from the reference responses.
func serveMetrics(samples []reqSample, wall float64, cycle []string, params map[string]*core.Params) []metric {
	var all []float64
	byClass := map[string][]float64{}
	var congestRate []float64
	for _, s := range samples {
		all = append(all, s.ms)
		model := requestModel(s.req)
		byClass[model] = append(byClass[model], s.ms)
		if model == "congest" {
			congestRate = append(congestRate, float64(respField(s.resp, "rounds"))/(s.ms/1e3))
		}
	}
	n := len(all)
	out := []metric{
		{Name: "solve_s", Value: percentile(all, 0.5) / 1e3, Unit: "s", Note: fmt.Sprintf("request p50, n=%d", n)},
		{Name: "ops_per_s", Value: float64(n) / wall, Unit: "1/s", Note: fmt.Sprintf("requests, n=%d", n)},
	}
	if q, ok := tailQuantile(n); ok {
		name := "req_p" + strings.TrimSuffix(strings.TrimRight(strconv.FormatFloat(q*100, 'f', 1, 64), "0"), ".") + "_ms"
		out = append(out, metric{Name: name, Value: percentile(all, q), Unit: "ms", Note: fmt.Sprintf("n=%d", n)})
	}
	var classes []string
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		out = append(out, metric{Name: "serve." + c + "_p50_ms", Value: percentile(byClass[c], 0.5), Unit: "ms",
			Note: fmt.Sprintf("n=%d", len(byClass[c]))})
	}

	// Per-cycle costs of the CONGEST requests, from the responses the
	// checker has already required to be identical across the run.
	var rounds, messages, iters, seedBits int64
	for _, req := range cycle {
		if requestModel(req) != "congest" {
			continue
		}
		resp := refResponse(samples, req)
		it := respField(resp, "iterations")
		rounds += respField(resp, "rounds")
		messages += respField(resp, "messages")
		iters += it
		if p := params[strings.Fields(req)[1]]; p != nil {
			seedBits += it * int64(p.LogC) * int64(p.D)
		}
	}
	return append(out,
		metric{Name: "engine.rounds", Value: float64(rounds), Unit: "count"},
		metric{Name: "engine.messages", Value: float64(messages), Unit: "count"},
		metric{Name: "engine.rounds_per_s", Value: median(congestRate), Unit: "1/s"},
		metric{Name: "core.iterations", Value: float64(iters), Unit: "count"},
		metric{Name: "core.seed_bits", Value: float64(seedBits), Unit: "count"},
	)
}

func refResponse(samples []reqSample, req string) string {
	for _, s := range samples {
		if s.req == req {
			return s.resp
		}
	}
	return ""
}
