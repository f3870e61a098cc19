package main

import (
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// tinySizes keeps each workload's data small enough for a run under -race.
var tinySizes = sizes{mixKeys: 4000, rrKeys: 5000, tuneScale: 4000}

// TestSmokeEveryWorkload runs each workload at tiny size, untraced and
// traced, and requires a correct result with every metric reported. Its
// closed-loop callers run concurrently, so -race covers the load generator.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/kvserver")
	}
	bin := filepath.Join(t.TempDir(), "kvserver")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/kvserver").CombinedOutput(); err != nil {
		t.Fatalf("build kvserver: %v\n%s", err, out)
	}
	for _, name := range []string{"mixgraph_server", "readrandom_cold", "tune_fillrandom"} {
		for _, trace := range []bool{false, true} {
			t.Run(name+map[bool]string{false: "", true: "/traced"}[trace], func(t *testing.T) {
				rc := &runCtx{
					seed: 3, seconds: 2 * time.Second, trace: trace, sz: tinySizes,
					kvBin: bin, dir: t.TempDir(), fp: newFingerprint("..", 3),
					wd:     startWatchdog(60*time.Second, 10*time.Minute, killChildren),
					detail: map[string]any{},
				}
				defer rc.wd.close()
				res, err := measure(rc, workloads[name].run)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d problems=%v",
						res.Correct, res.Attempted, res.Failed, rc.detail["problems"])
				}
				specs := endToEnd
				if trace {
					specs = perLayer
				}
				if len(res.Metrics) != len(specs) {
					t.Fatalf("%d metrics, want %d", len(res.Metrics), len(specs))
				}
				for _, m := range specs {
					if _, ok := res.Metrics[m.name]; !ok {
						t.Errorf("metric %s missing", m.name)
					}
				}
			})
		}
	}
}
