// Command perfbench is the repository benchmark. It measures the two things
// the repository serves — a key-value store under load and the tuning
// session that configures it — from outside: it calls the public functions
// of internal/server (and runs the cmd/kvserver binary), internal/lsm,
// internal/core, internal/llm and internal/experiments, times those calls,
// and diffs the counters the program already exports.
//
// Run it through run.py from the repository root, which builds it:
//
//	python3 perfbench/run.py --workload mixgraph_server --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is a JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics with --trace 0 and
// the per-layer metrics with --trace 1. The line before it holds the
// details: the fingerprint, sample counts, layer self times and spans file.
// NOTES.md describes the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, in BENCHMARK.json order.
// Each is measured on every workload; NOTES.md defines each per workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_us", "us"},
	{"p99_us", "us"},
}

// perLayer lists the metrics of a traced run. A layer a workload does not
// cross reports 0.
var perLayer = []metricSpec{
	{"server.wire_get_us", "us"},
	{"server.wire_put_us", "us"},
	{"server.router_get_us", "us"},
	{"server.router_put_us", "us"},
	{"server.bytes_per_op", "B"},
	{"server.op_errors", "count"},
	{"lsm.write_us", "us"},
	{"lsm.write_join_us", "us"},
	{"lsm.write_group_size", "count"},
	{"lsm.wal_sync_us", "us"},
	{"lsm.stall_us", "us"},
	{"lsm.stalled_writes", "count"},
	{"lsm.get_us", "us"},
	{"lsm.memtable_hit_ratio", "ratio"},
	{"lsm.block_cache_hit_ratio", "ratio"},
	{"lsm.bloom_useful_ratio", "ratio"},
	{"lsm.table_cache_hit_ratio", "ratio"},
	{"lsm.blocks_read_per_get", "count"},
	{"lsm.perf.get_files_us", "us"},
	{"lsm.perf.block_read_us", "us"},
	{"lsm.flushes", "count"},
	{"lsm.compactions", "count"},
	{"lsm.flush_bytes", "B"},
	{"lsm.compact_read_bytes", "B"},
	{"lsm.compact_write_bytes", "B"},
	{"lsm.write_amp", "ratio"},
	{"lsm.space_amp", "ratio"},
	{"kv.get_p50_us", "us"},
	{"kv.get_p99_us", "us"},
	{"kv.put_p50_us", "us"},
	{"kv.put_p99_us", "us"},
	{"llm.complete_ms", "ms"},
	{"llm.calls", "count"},
	{"llm.prompt_kb", "KiB"},
	{"llm.reply_kb", "KiB"},
	{"bench.run_ms", "ms"},
	{"bench.runs", "count"},
	{"bench.wall_us_per_sim_op", "us"},
	{"core.self_ms", "ms"},
	{"core.session_s", "s"},
	{"safeguard.accepted", "count"},
	{"safeguard.rejected.blacklisted", "count"},
	{"safeguard.rejected.hallucinated", "count"},
	{"safeguard.rejected.invalid", "count"},
	{"safeguard.rejected.no-op", "count"},
	{"flagger.kept", "count"},
	{"sim.baseline_vops", "1/s"},
	{"sim.best_vops", "1/s"},
	{"sim.improvement_x", "x"},
	{"runtime.peak_rss_mb", "MB"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_cpu_frac", "ratio"},
	{"host.steal_frac", "ratio"},
	{"error_rate", "ratio"},
	{"trace.overhead_frac", "ratio"},
	{"trace.unexplained_frac", "ratio"},
}

// workload is one traffic mix: its runner, and how many processes an
// untraced run splits its measurement across. Runs on the same host
// differ by a per-process offset (scheduling, memory placement) of up to
// ~20%; pooling the windows of several processes, each set up afresh,
// damps it. The client and server processes of mixgraph_server share two
// CPUs, so their placement varies most, and it has the cheapest set-up.
type workload struct {
	run   func(*runCtx) (*outcome, error)
	parts int
}

var workloads = map[string]workload{
	"mixgraph_server": {runMixgraph, 5},
	"readrandom_cold": {runReadrandom, 3},
	// A tuning session cannot be cut short, and takes ~20 s; one process
	// runs at least tuneMinSessions of them.
	"tune_fillrandom": {runTune, 1},
}

// sizes are the workloads' data sizes; the tests run smaller ones.
type sizes struct {
	mixKeys   int   // mixgraph_server key space, half of it preloaded
	rrKeys    int   // readrandom_cold preloaded keys
	tuneScale int64 // tune_fillrandom divides the paper's sizes by this
}

var fullSizes = sizes{mixKeys: 400_000, rrKeys: 400_000, tuneScale: 400}

// runCtx is what every workload runner receives.
type runCtx struct {
	seed    int64
	seconds time.Duration
	trace   bool
	sz      sizes
	kvBin   string // cmd/kvserver binary
	dir     string // this run's private data directory
	wd      *watchdog
	tally   tally
	fp      fingerprint
	detail  map[string]any
}

// outcome is a workload's measurement.
type outcome struct {
	setup    time.Duration
	e2e      map[string]float64
	layers   map[string]float64
	problems []string // failed correctness checks
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layers: map[string]float64{}}
}

// check books a failed correctness check.
func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var a args
	flag.StringVar(&a.workload, "workload", "", "mixgraph_server, readrandom_cold or tune_fillrandom")
	flag.Int64Var(&a.seed, "seed", 1, "seed the inputs are generated from")
	flag.Float64Var(&a.seconds, "seconds", 25, "seconds to measure")
	flag.IntVar(&a.trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&a.kvBin, "kvserver", "", "cmd/kvserver binary")
	flag.StringVar(&a.workdir, "workdir", ".bench_build/run", "directory for data and span files")
	flag.StringVar(&a.root, "root", ".", "repository root, for the source digest")
	flag.IntVar(&a.part, "part", -1, "measure one part of an untraced run in this process (set by the parent)")
	flag.Parse()
	if err := run(a); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// args are the command-line arguments.
type args struct {
	workload      string
	seed          int64
	seconds       float64
	trace         int
	kvBin         string
	workdir, root string
	part          int
}

// runDeadline bounds a whole run: the benchmark must exit within 180 s.
const runDeadline = 170 * time.Second

func run(a args) error {
	w, ok := workloads[a.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", a.workload)
	}
	if a.seconds < 1 {
		return errors.New("--seconds must be at least 1")
	}
	if a.trace == 0 && a.part < 0 {
		return runParts(a, w.parts)
	}
	dir := filepath.Join(a.workdir, fmt.Sprintf("%s-%d", a.workload, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	rc := &runCtx{
		seed: a.seed, seconds: time.Duration(a.seconds * float64(time.Second)), trace: a.trace == 1,
		sz: fullSizes, kvBin: a.kvBin, dir: dir,
		wd:     startWatchdog(20*time.Second, runDeadline, killChildren),
		detail: map[string]any{"workload": a.workload, "seconds": a.seconds, "trace": a.trace == 1},
	}
	defer rc.wd.close()
	rc.fp = newFingerprint(a.root, a.seed)

	res, err := measure(rc, w.run)
	if err != nil {
		killChildren()
		return err
	}
	return printResult(rc.detail, res)
}

// printResult writes the detail line and, last, the result line.
func printResult(detail any, res *resultLine) error {
	d, err := json.Marshal(detail)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("detail: %s\n%s\n", d, line)
	return nil
}

// measure runs one workload and assembles its result line, putting the
// details into rc.detail.
func measure(rc *runCtx, runner func(*runCtx) (*outcome, error)) (*resultLine, error) {
	stealBefore := readCPUTicks()
	out, err := runner(rc)
	if err != nil {
		return nil, err
	}
	// Time the hypervisor gave this VM's CPUs to other guests slows every
	// figure; a run with a large share is not comparable to one without.
	out.layers["host.steal_frac"] = readCPUTicks().stealFrac(stealBefore)
	rc.detail["host_steal_frac"] = out.layers["host.steal_frac"]
	bad := rc.tally.bad()
	out.layers["error_rate"] = rc.tally.errorRate()
	out.e2e["setup_s"] = out.setup.Seconds()
	rc.detail["fingerprint"] = rc.fp
	rc.detail["problems"] = out.problems
	rc.detail["end_to_end"] = out.e2e
	rc.detail["error_rate"] = rc.tally.errorRate()

	res := resultLine{
		Correct:   len(out.problems) == 0 && bad == 0,
		Attempted: rc.tally.attempted.Load(),
		Failed:    bad,
		Metrics:   map[string]metricOut{},
	}
	specs, values := endToEnd, out.e2e
	if rc.trace {
		specs, values = perLayer, out.layers
		rc.detail["layers"] = out.layers
	}
	for _, m := range specs {
		v, ok := values[m.name]
		if !rc.trace && (!ok || v <= 0) {
			return nil, fmt.Errorf("end-to-end metric %s not measured (%v)", m.name, v)
		}
		res.Metrics[m.name] = metricOut{Value: v, Unit: m.unit}
	}
	if res.Attempted < 1 {
		return nil, errors.New("no operation attempted")
	}
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	return &res, nil
}

// rtSnap is a point in this process's runtime counters.
type rtSnap struct {
	gcCPU, totalCPU float64 // seconds; total is GOMAXPROCS integrated over wall time
	mallocs         uint64
}

func readRuntime() rtSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return rtSnap{gcCPU: s[0].Value.Float64(), totalCPU: s[1].Value.Float64(), mallocs: ms.Mallocs}
}

// runtimeLayers reports heap allocations per operation and the share of
// available CPU the garbage collector took between two snapshots.
func runtimeLayers(before, after rtSnap, ops float64, out map[string]float64) {
	out["runtime.allocs_per_op"] = ratio(float64(after.mallocs-before.mallocs), ops)
	out["runtime.gc_cpu_frac"] = ratio(after.gcCPU-before.gcCPU, after.totalCPU-before.totalCPU)
}
