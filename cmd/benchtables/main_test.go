package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestWorkloadName pins the sized-workload record name: group, slash,
// kind, dash, size.
func TestWorkloadName(t *testing.T) {
	if got := workloadName("scale-color", "grid", 100000); got != "scale-color/grid-100000" {
		t.Errorf("workloadName = %q", got)
	}
}

// TestProcRuns pins the -procs resolution at 4 CPUs and at 1, where
// "both" must not record an @pN twin of @p1.
func TestProcRuns(t *testing.T) {
	for _, c := range []struct {
		mode     string
		ncpu     int
		want     []procRun
		wantNote bool
	}{
		{"current", 4, []procRun{{"x", 0}}, false},
		{"1", 4, []procRun{{"x", 1}}, false},
		{"max", 4, []procRun{{"x", 4}}, false},
		{"both", 4, []procRun{{"x@p1", 1}, {"x@pN", 4}}, false},
		{"current", 1, []procRun{{"x", 0}}, false},
		{"1", 1, []procRun{{"x", 1}}, false},
		{"max", 1, []procRun{{"x", 1}}, true},
		{"both", 1, []procRun{{"x@p1", 1}}, true},
	} {
		runs, note, err := procRuns(c.mode, "x", c.ncpu)
		if err != nil || !slices.Equal(runs, c.want) || (note != "") != c.wantNote {
			t.Errorf("procRuns(%q, ncpu=%d) = %v, note %q, err %v; want %v, note %v", c.mode, c.ncpu, runs, note, err, c.want, c.wantNote)
		}
	}
	if _, _, err := procRuns("2", "x", 4); err == nil {
		t.Error("procRuns accepted -procs 2")
	}
}

// TestBenchtablesRecordsMPC drives the binary end to end in its quick
// recorder mode: it must produce a valid BENCH-schema JSON file. One
// invocation only — benchtables registers its -quick flag at package
// init, so the process-global flag set cannot be rebuilt.
func TestBenchtablesRecordsMPC(t *testing.T) {
	if testing.Short() {
		t.Skip("benchtables smoke test skipped in -short mode")
	}
	out := filepath.Join(t.TempDir(), "BENCH_smoke.json")
	os.Args = []string{"benchtables", "-mpc", "-quick", "-label", "smoke", "-o", out}
	main()
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var file BenchFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("recorded file is not valid JSON: %v", err)
	}
	if file.Schema != "smallbandwidth/bench-mpc/v1" {
		t.Errorf("schema = %q", file.Schema)
	}
	rec, ok := file.Engines["smoke"]
	if !ok || len(rec.Workloads) == 0 {
		t.Fatalf("label %q missing or empty: %+v", "smoke", file.Engines)
	}
	for _, w := range rec.Workloads {
		if w.WallNS <= 0 || w.Rounds <= 0 {
			t.Errorf("workload %s recorded no measurements: %+v", w.Name, w)
		}
	}
}
