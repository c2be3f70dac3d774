package engine_test

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"smallbandwidth/internal/engine"
	"smallbandwidth/internal/graph"
)

// TestRunsLeaveNoGoroutines: every way a run can end — completion, a
// node panic while the other nodes sleep in SkipUntil, and the MaxRounds
// abort — unwinds every node program and stops every worker, so no
// goroutine of the run outlives it.
func TestRunsLeaveNoGoroutines(t *testing.T) {
	engine.SetForceShards(3)
	defer engine.SetForceShards(0)
	g := graph.Cycle(900)
	for _, tc := range []struct {
		name    string
		cfg     engine.Config
		program func(*engine.Ctx)
		wantErr string // "" for a clean run
	}{
		{"completion", engine.Config{}, func(ctx *engine.Ctx) {
			for r := 0; r < 3; r++ {
				for _, w := range ctx.Neighbors() {
					ctx.Send(int(w), engine.Message{uint64(r)})
				}
				ctx.Next()
			}
			ctx.SkipUntil(10)
		}, ""},
		{"panic", engine.Config{}, func(ctx *engine.Ctx) {
			switch {
			case ctx.ID() == 450:
				ctx.Next()
				ctx.Next()
				panic("node failure")
			case ctx.ID()%2 == 0:
				ctx.SkipUntil(1000)
			default:
				ctx.SkipUntil(2000)
			}
		}, "panicked"},
		{"maxrounds", engine.Config{MaxRounds: 50}, func(ctx *engine.Ctx) {
			for {
				ctx.Next()
			}
		}, "MaxRounds"},
	} {
		before := runtime.NumGoroutine()
		_, err := engine.Run(g, tc.cfg, tc.program)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Fatalf("%s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Fatalf("%s: got error %v, want one containing %q", tc.name, err, tc.wantErr)
		}
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("%s: %d goroutines before the run, %d after", tc.name, before, after)
		}
	}
}
