package main

import (
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	sb "smallbandwidth"
)

// runCLI invokes main with a fresh flag set and the given arguments.
// colorcli defines all its flags inside main, so resetting
// flag.CommandLine lets one test process drive several invocations.
func runCLI(t *testing.T, args ...string) {
	t.Helper()
	oldArgs, oldFlags := os.Args, flag.CommandLine
	defer func() {
		os.Args, flag.CommandLine = oldArgs, oldFlags
	}()
	flag.CommandLine = flag.NewFlagSet("colorcli", flag.ExitOnError)
	os.Args = append([]string{"colorcli"}, args...)
	main()
}

// TestCLISmokeAllModels runs one small instance through every model the
// CLI exposes: a compile-and-run guard that keeps the binary on the
// go-test path. Failures inside the algorithms log.Fatal, aborting the
// test process.
func TestCLISmokeAllModels(t *testing.T) {
	if testing.Short() {
		t.Skip("cli smoke test skipped in -short mode")
	}
	runCLI(t, "-graph", "cycle", "-n", "24", "-model", "congest")
	runCLI(t, "-graph", "regular", "-n", "20", "-d", "4", "-model", "clique")
	runCLI(t, "-graph", "grid", "-n", "16", "-model", "mpc")
	// Sublinear memory needs a non-toy instance: at tiny n the S = Θ(√n)
	// budget is so small that the IO audit (correctly) rejects the run.
	runCLI(t, "-graph", "regular", "-n", "32", "-d", "4", "-model", "mpc", "-sublinear")
	runCLI(t, "-graph", "cycle", "-n", "32", "-model", "decomposed")
	runCLI(t, "-graph", "star", "-n", "12", "-model", "randomized")
	runCLI(t, "-graph", "caveman", "-n", "24", "-model", "greedy", "-lists", "random")
}

// TestCheckpointEveryRejectedForUnsupportedModels is the regression
// test for the silently-ignored flag: -checkpoint-every combined with a
// model that has no checkpoint implementation must abort with an error
// naming the models that do, instead of running without checkpoints.
// log.Fatalf exits the process, so each case re-execs the test binary.
func TestCheckpointEveryRejectedForUnsupportedModels(t *testing.T) {
	if os.Getenv("COLORCLI_CKREJECT_MODEL") != "" {
		runCLI(t, "-graph", "cycle", "-n", "16",
			"-model", os.Getenv("COLORCLI_CKREJECT_MODEL"), "-checkpoint-every", "2")
		return
	}
	for _, model := range []string{"clique", "mpc", "randomized", "greedy"} {
		cmd := exec.Command(os.Args[0], "-test.run", "TestCheckpointEveryRejectedForUnsupportedModels")
		cmd.Env = append(os.Environ(), "COLORCLI_CKREJECT_MODEL="+model)
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("-model %s -checkpoint-every 2 succeeded; output:\n%s", model, out)
		}
		if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
			t.Fatalf("-model %s: %v, want exit status 1", model, err)
		}
		if !strings.Contains(string(out), "checkpointing models: congest, decomposed") {
			t.Fatalf("-model %s error does not name the supporting models:\n%s", model, out)
		}
	}
	// The supported models still accept the flag.
	runCLI(t, "-graph", "cycle", "-n", "24", "-model", "congest",
		"-checkpoint-every", "1000000", "-checkpoint", t.TempDir()+"/ck.snap")
	runCLI(t, "-graph", "cycle", "-n", "24", "-model", "decomposed",
		"-checkpoint-every", "1000000", "-checkpoint", t.TempDir()+"/ck.snap")
}

// rerunExpectingError re-execs the test binary to drive main with args
// that must log.Fatal, and returns the combined output. Exit status 1
// (log.Fatal) is required — a panic would exit 2 with a stack trace.
func rerunExpectingError(t *testing.T, test string, env string, args ...string) string {
	t.Helper()
	if os.Getenv(env) != "" {
		runCLI(t, strings.Split(os.Getenv(env), " ")...)
		return ""
	}
	cmd := exec.Command(os.Args[0], "-test.run", test)
	cmd.Env = append(os.Environ(), env+"="+strings.Join(args, " "))
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("%v succeeded; output:\n%s", args, out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("%v: %v, want exit status 1 (a clean log.Fatal, not a panic); output:\n%s", args, err, out)
	}
	return string(out)
}

// TestGeneratorParamErrorsAreClean is the regression test for invalid
// generator parameters reaching the user as a raw panic: -graph cycle
// -n 2 (Cycle requires n >= 3) and -graph regular with n·d odd used to
// crash with a goroutine stack trace instead of a diagnostic.
func TestGeneratorParamErrorsAreClean(t *testing.T) {
	const env = "COLORCLI_BADGRAPH_ARGS"
	if os.Getenv(env) != "" {
		rerunExpectingError(t, "", env)
		return
	}
	cases := [][]string{
		{"-graph", "cycle", "-n", "2", "-model", "greedy"},
		{"-graph", "regular", "-n", "5", "-d", "3", "-model", "greedy"},
	}
	for _, args := range cases {
		out := rerunExpectingError(t, "TestGeneratorParamErrorsAreClean", env, args...)
		if !strings.Contains(out, "invalid -graph") {
			t.Fatalf("%v: error is not the clean diagnostic:\n%s", args, out)
		}
		if strings.Contains(out, "goroutine ") {
			t.Fatalf("%v: error still carries a stack trace:\n%s", args, out)
		}
	}
}

// TestCheckpointFlagMisuseRejected is the regression test for the two
// silent checkpoint no-ops: -checkpoint FILE without -checkpoint-every
// and a negative -checkpoint-every both used to run to completion
// without ever writing a checkpoint.
func TestCheckpointFlagMisuseRejected(t *testing.T) {
	const env = "COLORCLI_BADCK_ARGS"
	if os.Getenv(env) != "" {
		rerunExpectingError(t, "", env)
		return
	}
	out := rerunExpectingError(t, "TestCheckpointFlagMisuseRejected", env,
		"-graph", "cycle", "-n", "16", "-model", "congest", "-checkpoint", "ck.snap")
	if !strings.Contains(out, "without -checkpoint-every") {
		t.Fatalf("-checkpoint without -checkpoint-every: wrong diagnostic:\n%s", out)
	}
	out = rerunExpectingError(t, "TestCheckpointFlagMisuseRejected", env,
		"-graph", "cycle", "-n", "16", "-model", "congest", "-checkpoint-every", "-3")
	if !strings.Contains(out, "-checkpoint-every must be >= 0") {
		t.Fatalf("negative -checkpoint-every: wrong diagnostic:\n%s", out)
	}
}

// TestCheckpointBannerHonest is the regression test for the lying
// summary line: a run whose cut count never reached -checkpoint-every
// used to print "latest written to FILE" while writing nothing — and a
// stale same-named file from an earlier run made the lie look true at
// resume time.
func TestCheckpointBannerHonest(t *testing.T) {
	const env = "COLORCLI_CKBANNER_ARGS"
	if os.Getenv(env) != "" {
		runCLI(t, strings.Split(os.Getenv(env), " ")...)
		return
	}
	rerun := func(args ...string) string {
		t.Helper()
		cmd := exec.Command(os.Args[0], "-test.run", "TestCheckpointBannerHonest")
		cmd.Env = append(os.Environ(), env+"="+strings.Join(args, " "))
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%v: %v\n%s", args, err, out)
		}
		return string(out)
	}

	ck := filepath.Join(t.TempDir(), "ck.snap")
	out := rerun("-graph", "cycle", "-n", "24", "-model", "congest",
		"-checkpoint-every", "1000000", "-checkpoint", ck)
	if strings.Contains(out, "written, latest to") {
		t.Fatalf("interval never reached, but the banner claims a write:\n%s", out)
	}
	if !strings.Contains(out, "checkpoints: none written") {
		t.Fatalf("interval never reached: expected the none-written notice:\n%s", out)
	}
	if _, err := os.Stat(ck); !os.IsNotExist(err) {
		t.Fatalf("interval never reached, but %s exists (stat err: %v)", ck, err)
	}

	out = rerun("-graph", "cycle", "-n", "24", "-model", "congest",
		"-checkpoint-every", "1", "-checkpoint", ck)
	if !strings.Contains(out, "cuts written, latest to") {
		t.Fatalf("every cut checkpointed: banner missing:\n%s", out)
	}
	if _, err := os.Stat(ck); err != nil {
		t.Fatalf("every cut checkpointed, but no file: %v", err)
	}
}

// TestHeaderBoundsDiameter checks the header's graph line on a path,
// whose node 0 is an end (eccentricity 9, so D∈[9,18]), and the bound's
// special cases on graphs without a finite positive diameter.
func TestHeaderBoundsDiameter(t *testing.T) {
	const env = "COLORCLI_HEADER_ARGS"
	if os.Getenv(env) != "" {
		runCLI(t, strings.Split(os.Getenv(env), " ")...)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run", "TestHeaderBoundsDiameter")
	cmd.Env = append(os.Environ(), env+"=-graph path -n 10 -model greedy")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%v\n%s", err, out)
	}
	if want := "graph=path n=10 m=9 Δ=2 D∈[9,18] colorspace=3\n"; !strings.Contains(string(out), want) {
		t.Fatalf("header missing %q:\n%s", want, out)
	}
	two, err := sb.FromEdges(3, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if got := diameterBound(two); got != "D=-1" {
		t.Errorf("disconnected: %s, want D=-1", got)
	}
	if got := diameterBound(sb.Path(1)); got != "D=0" {
		t.Errorf("one node: %s, want D=0", got)
	}
}
