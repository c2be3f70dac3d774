package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchSpec is the part of BENCHMARK.json that compare applies.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// findBenchmark looks for BENCHMARK.json in the working directory and
// its parents, so compare works from the repo root and from this
// package's directory alike.
func findBenchmark() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		p := filepath.Join(dir, "BENCHMARK.json")
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found; pass -benchmark")
		}
		dir = parent
	}
}

func readSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// compareMain compares two set files run by run: A is the parent (the
// reference), B the change. Exit status 1 means a regression.
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("benchmark", "", "BENCHMARK.json with the metric bounds (default: searched for upward from the working directory)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: sbwbench compare [-benchmark FILE] A.json B.json")
		return 2
	}
	path := *specPath
	var err error
	if path == "" {
		if path, err = findBenchmark(); err != nil {
			fmt.Fprintln(os.Stderr, "sbwbench compare:", err)
			return 2
		}
	}
	spec, err := readSpec(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbwbench compare:", err)
		return 2
	}
	a, err := readSet(fs.Arg(0))
	if err == nil && len(a.Runs) == 0 {
		err = fmt.Errorf("%s holds no runs", fs.Arg(0))
	}
	var b *recordSet
	if err == nil {
		b, err = readSet(fs.Arg(1))
	}
	if err == nil && len(b.Runs) == 0 {
		err = fmt.Errorf("%s holds no runs", fs.Arg(1))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sbwbench compare:", err)
		return 2
	}
	rows := compareSets(spec, a, b)
	if len(rows) == 0 {
		fmt.Fprintln(os.Stderr, "sbwbench compare: no workload has untraced runs in both sets")
		return 2
	}
	bad := false
	for _, row := range rows {
		fmt.Fprintln(w, row.String())
		bad = bad || row.Verdict == "regression" || row.Verdict == "failed"
	}
	if bad {
		return 1
	}
	return 0
}

// compareRow is one workload × end-to-end metric comparison.
type compareRow struct {
	Workload, Metric, Unit string
	A, B                   [3]float64 // q1, median, q3
	// FailedA and FailedB count failed ops over each side's untraced
	// runs of the workload, out of AttemptedA and AttemptedB.
	FailedA, AttemptedA, FailedB, AttemptedB int
	Wins, Pairs                              int
	Bound, Spread                            float64
	Verdict                                  string
}

func (r compareRow) String() string {
	return fmt.Sprintf("%-14s %-12s A %.4g [%.4g..%.4g] B %.4g [%.4g..%.4g] %s  failed %d/%d vs %d/%d  wins %d/%d  spread %.1f%% bound %.0f%%  %s",
		r.Workload, r.Metric, r.A[1], r.A[0], r.A[2], r.B[1], r.B[0], r.B[2], r.Unit,
		r.FailedA, r.AttemptedA, r.FailedB, r.AttemptedB, r.Wins, r.Pairs, 100*r.Spread, 100*r.Bound, r.Verdict)
}

// compareSets applies the rule of the README to the untraced runs of
// each set; traced runs measure with the profiler on and are skipped.
// Runs with a failed op give no values. Any failed op in B fails the
// row, so it is never a gain. Otherwise a change regresses a metric when
// its median is worse than the parent's by more than the bound; when
// the parent's own quartile spread exceeds the bound the result is
// unresolved unless every B run beats every A run; a gain needs B to win
// at least nine tenths of the pairs and the medians to differ by more
// than the parent's spread.
func compareSets(spec *benchSpec, a, b *recordSet) []compareRow {
	ra, rb := untracedRuns(a), untracedRuns(b)
	var names []string
	for w := range ra {
		if _, ok := rb[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	var rows []compareRow
	for _, wl := range names {
		for _, m := range spec.EndToEnd {
			va, vb := values(ra[wl], m.Name), values(rb[wl], m.Name)
			if len(present(va)) == 0 && len(present(vb)) == 0 {
				continue
			}
			lower := m.Better == "lower"
			better := func(x, y float64) bool {
				if lower {
					return x < y
				}
				return x > y
			}
			row := compareRow{Workload: wl, Metric: m.Name, Unit: m.Unit, Bound: m.Bound}
			row.FailedA, row.AttemptedA = failures(ra[wl])
			row.FailedB, row.AttemptedB = failures(rb[wl])
			// Runs pair by position, and only when both sides have a value.
			for i := 0; i < len(va) && i < len(vb); i++ {
				if !math.IsNaN(va[i]) && !math.IsNaN(vb[i]) {
					row.Pairs++
					if better(vb[i], va[i]) {
						row.Wins++
					}
				}
			}
			va, vb = present(va), present(vb)
			row.A[0], row.A[1], row.A[2] = quartiles(va)
			row.B[0], row.B[1], row.B[2] = quartiles(vb)
			if row.FailedB > 0 || len(vb) == 0 {
				row.Verdict = "failed"
				rows = append(rows, row)
				continue
			}
			if len(va) == 0 {
				row.Verdict = "unresolved"
				rows = append(rows, row)
				continue
			}
			// End-to-end metrics are never 0, so the ratios are defined.
			row.Spread = (row.A[2] - row.A[0]) / row.A[1]
			worse := (row.B[1] - row.A[1]) / row.A[1]
			if !lower {
				worse = -worse
			}
			allBetter := true
			for _, x := range vb {
				for _, y := range va {
					allBetter = allBetter && better(x, y)
				}
			}
			switch {
			case row.Spread > m.Bound && !allBetter:
				row.Verdict = "unresolved"
			case worse > m.Bound:
				row.Verdict = "regression"
			case worse < 0 && 10*row.Wins >= 9*row.Pairs && math.Abs(row.B[1]-row.A[1]) > row.A[2]-row.A[0]:
				row.Verdict = "gain"
			default:
				row.Verdict = "within bound"
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// untracedRuns groups a set's untraced runs by workload, in set order.
func untracedRuns(s *recordSet) map[string][]workloadRecord {
	out := map[string][]workloadRecord{}
	for _, r := range s.Runs {
		if r.Trace != 0 {
			continue
		}
		for w, wr := range r.Workloads {
			out[w] = append(out[w], wr)
		}
	}
	return out
}

func failures(runs []workloadRecord) (failed, attempted int) {
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
		if r.Attempted == 0 {
			failed++ // a run that attempted nothing counts as one failure
		}
	}
	return failed, attempted
}

// values lists one metric across runs, NaN where a run lacks it or
// failed an op, so that index i stays run i for pairing.
func values(runs []workloadRecord, metric string) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = math.NaN()
		if m, ok := r.Metrics[metric]; ok && r.Failed == 0 && r.Attempted > 0 {
			out[i] = m.Value
		}
	}
	return out
}

// present drops the NaN entries of values.
func present(xs []float64) []float64 {
	var out []float64
	for _, x := range xs {
		if !math.IsNaN(x) {
			out = append(out, x)
		}
	}
	return out
}
