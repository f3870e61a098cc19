package main

import (
	"encoding/json"
	"errors"
	"math"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/lsm"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9*math.Max(1, math.Abs(b)) }

func TestPercentileCountsSamples(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- { // unsorted on purpose
		s.add(time.Duration(i) * time.Microsecond)
	}
	for _, c := range []struct {
		p         float64
		us        float64
		n, beyond int
	}{{50, 50, 100, 50}, {99, 99, 100, 1}, {100, 100, 100, 0}, {0.1, 1, 100, 99}} {
		got := s.percentile(c.p)
		if got.US != c.us || got.N != c.n || got.Beyond != c.beyond {
			t.Errorf("p%v = %+v, want us=%v n=%d beyond=%d", c.p, got, c.us, c.n, c.beyond)
		}
	}
	if got := (&samples{}).percentile(50); got.N != 0 || got.US != 0 {
		t.Errorf("empty percentile = %+v", got)
	}
	if m := s.meanUS(); m != 50.5 {
		t.Errorf("mean = %v, want 50.5", m)
	}
}

func TestWindowsReportMedians(t *testing.T) {
	start := time.Unix(0, 0)
	var w windows
	// Window 0: 3 ops at 10us; window 1: 5 ops at 20us; window 2: 4 ops
	// at 1000us; window 3 is partial and must be ignored.
	for i, n := range []int{3, 5, 4, 9} {
		for j := 0; j < n; j++ {
			us := []int{10, 20, 1000, 5}[i]
			w.add(start, start.Add(time.Duration(i)*window+time.Millisecond), time.Duration(us)*time.Microsecond)
		}
	}
	perS := 1 / window.Seconds()
	p := &kvPhase{wins: w, full: 3}
	out, detail := map[string]float64{}, map[string]any{}
	kvEndToEnd(p, out, detail)
	if !near(out["ops_per_s"], 4*perS) || out["p50_us"] != 20 || out["p99_us"] != 20 {
		t.Errorf("window medians = %v, want ops %v/s, p50 20us, p99 20us", out, 4*perS)
	}
	if ws := detail["windows"].([]winStat); len(ws) != 3 || ws[0].N != 3 || ws[2].P99US != 1000 {
		t.Errorf("windows = %+v, want 3 with n=3 first and p99 1000us last", ws)
	}
	if detail["windows_used"] != 3 || detail["window_fewest_samples"] != 3 {
		t.Errorf("used %v windows, fewest samples %v; want 3 and 3", detail["windows_used"], detail["window_fewest_samples"])
	}

	// With steal measured, only the third of the windows least slowed by
	// the hypervisor counts: window 0 here.
	p.steal = []float64{0, 0.001, 0.3}
	kvEndToEnd(p, out, detail)
	if !near(out["ops_per_s"], 3*perS) || out["p50_us"] != 10 || detail["windows_used"] != 1 {
		t.Errorf("steal-filtered medians = %v over %v windows, want ops %v/s, p50 10us over 1", out, detail["windows_used"], 3*perS)
	}
}

func TestLeastStolenKeepsTies(t *testing.T) {
	ws := []winStat{{Steal: 0.2}, {Steal: 0}, {Steal: 0}, {Steal: 0}, {Steal: 0.1}}
	if got := leastStolen(ws); len(got) != 3 {
		t.Errorf("kept %d windows, want the 3 without steal", len(got))
	}
	ws = []winStat{{Steal: 0.3}, {Steal: 0.1}, {Steal: 0.2}, {Steal: 0.4}}
	if got := leastStolen(ws); len(got) != 2 || got[0].Steal != 0.1 || got[1].Steal != 0.2 {
		t.Errorf("kept %+v, want the two least stolen in order", got)
	}
	if leastStolen(nil) != nil {
		t.Error("no windows gave some")
	}
}

func TestPartsPoolTheirWindows(t *testing.T) {
	// Part 0 was stolen from throughout; part 1 was not. Pooled, the run's
	// figures come from part 1 alone, where a median of the parts' own
	// figures would sit between them.
	raw := func(ws ...winStat) json.RawMessage {
		b, err := json.Marshal(map[string]any{"windows": ws})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	details := []json.RawMessage{
		raw(winStat{Steal: 0.3, OpsPerS: 10, P99US: 900}, winStat{Steal: 0.2, OpsPerS: 20, P99US: 800}),
		raw(winStat{Steal: 0, OpsPerS: 100, P99US: 90}, winStat{Steal: 0.01, OpsPerS: 110, P99US: 110}),
	}
	ws := poolWindows(details)
	if len(ws) != 4 {
		t.Fatalf("pooled %d windows, want 4", len(ws))
	}
	out := map[string]float64{}
	windowFigures(ws, out, map[string]any{})
	if out["ops_per_s"] != 105 || out["p99_us"] != 100 {
		t.Errorf("pooled figures = %v, want ops 105/s and p99 100us", out)
	}
	if poolWindows(append(details, json.RawMessage(`{"improvement_x":1.5}`))) != nil {
		t.Error("a part without windows still pooled")
	}
}

func TestTuneTakesEachStepFromItsFastestSession(t *testing.T) {
	step := func(steal float64, us int, wall time.Duration) stepStat {
		h := lsm.NewHistogramStats()
		for i := 0; i < 100; i++ {
			h.Record(lsm.HistWriteMicros, time.Duration(us)*time.Microsecond)
		}
		return stepStat{hists: h, ops: 100, wall: wall, steal: steal}
	}
	sess := func(steps ...stepStat) *session { return &session{clk: &sessionClock{steps: steps}} }
	hists, ops, wall := fastestSteps([]*session{
		sess(step(0.2, 1000, 9*time.Second), step(0, 10, time.Second)),
		sess(step(0, 20, 2*time.Second), step(0.1, 2000, 8*time.Second)),
	})
	got := hists.Data(lsm.HistWriteMicros)
	if got.Count != 200 || got.Min != 10 || got.Max != 20 {
		t.Errorf("merged %d writes in [%v, %v] us, want 200 in [10, 20]", got.Count, got.Min, got.Max)
	}
	if ops != 200 || wall != 3*time.Second {
		t.Errorf("chosen steps did %d writes in %v, want 200 in 3s", ops, wall)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}

func TestCombinePartsTakesMedians(t *testing.T) {
	part := func(correct bool, attempted, failed int64, ops float64) resultLine {
		return resultLine{Correct: correct, Attempted: attempted, Failed: failed,
			Metrics: map[string]metricOut{"ops_per_s": {Value: ops, Unit: "1/s"}}}
	}
	got := combineParts([]resultLine{part(true, 10, 0, 300), part(true, 20, 1, 100), part(true, 30, 0, 200)})
	if !got.Correct || got.Attempted != 60 || got.Failed != 1 {
		t.Errorf("combined = %+v", got)
	}
	if m := got.Metrics["ops_per_s"]; m.Value != 200 || m.Unit != "1/s" {
		t.Errorf("ops_per_s = %+v, want the median 200", m)
	}
	if combineParts([]resultLine{part(true, 1, 0, 1), part(false, 1, 0, 1)}).Correct {
		t.Error("a failed part left the run correct")
	}
	raw := func(s string) json.RawMessage { return json.RawMessage(s) }
	if !sameImprovement([]json.RawMessage{raw(`{"improvement_x":1.5}`), raw(`{"improvement_x":1.5}`), raw(`{}`)}) {
		t.Error("equal improvements rejected")
	}
	if sameImprovement([]json.RawMessage{raw(`{"improvement_x":1.5}`), raw(`{"improvement_x":1.25}`)}) {
		t.Error("different improvements accepted")
	}
}

func TestTallyCountsEveryFailureConcurrently(t *testing.T) {
	var tl tally
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tl.attempted.Add(1)
				switch {
				case i%100 == 0:
					tl.failed.Add(1)
				case i%250 == 1:
					tl.wrong.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	// Per goroutine: 10 failed, 4 wrong.
	if tl.attempted.Load() != 8000 || tl.bad() != 8*14 {
		t.Fatalf("attempted %d bad %d, want 8000 and %d", tl.attempted.Load(), tl.bad(), 8*14)
	}
	if r := tl.errorRate(); !near(r, 112.0/8000) {
		t.Errorf("error rate = %v", r)
	}
	if r := (&tally{}).errorRate(); r != 0 {
		t.Errorf("error rate with no attempts = %v", r)
	}
}

func TestDerivedRatios(t *testing.T) {
	if w := writeAmp(100, 200, 300, 200); w != 3 {
		t.Errorf("writeAmp = %v, want 3", w)
	}
	if s := spaceAmp(900, 100, 500); s != 2 {
		t.Errorf("spaceAmp = %v, want 2", s)
	}
	if h := hitRatio(3, 1); h != 0.75 {
		t.Errorf("hitRatio = %v", h)
	}
	if h := hitRatio(0, 0); h != 0 {
		t.Errorf("hitRatio with no lookups = %v", h)
	}
}

func TestEngineLayersFromCounterDeltas(t *testing.T) {
	before := promSample{
		"rocksdb_db_get_micros_sum": 1000, "rocksdb_db_get_micros_count": 100,
		"rocksdb_block_cache_hit": 50, "rocksdb_block_cache_miss": 50,
	}
	after := promSample{
		"rocksdb_db_get_micros_sum": 3000, "rocksdb_db_get_micros_count": 200,
		"rocksdb_db_write_micros_sum": 500, "rocksdb_db_write_micros_count": 50,
		"rocksdb_block_cache_hit": 80, "rocksdb_block_cache_miss": 120,
		"rocksdb_memtable_hit": 25, "rocksdb_memtable_miss": 75,
		"rocksdb_bloom_filter_useful": 30, "rocksdb_bloom_filter_checked": 90,
		"rocksdb_table_cache_hit": 99, "rocksdb_table_cache_miss": 1,
		"lsm_perf_get_from_output_files_time": 800_000, "lsm_perf_block_read_time": 400_000,
		"rocksdb_flush_count": 3, "rocksdb_stall_slowdown_writes": 2, "rocksdb_stall_stopped_writes": 1,
	}
	out := map[string]float64{}
	engineLayers(before, after, out)
	want := map[string]float64{
		"lsm.get_us":                20,  // 2000us over 100 gets
		"lsm.write_us":              10,  // 500us over 50 writes
		"lsm.block_cache_hit_ratio": 0.3, // 30 hits, 70 misses
		"lsm.blocks_read_per_get":   0.7,
		"lsm.memtable_hit_ratio":    0.25,
		"lsm.bloom_useful_ratio":    0.25,
		"lsm.table_cache_hit_ratio": 0.99,
		"lsm.perf.get_files_us":     8, // 800us over 100 gets
		"lsm.perf.block_read_us":    4,
		"lsm.flushes":               3,
		"lsm.stalled_writes":        3,
		"lsm.write_group_size":      0, // no samples: 0, not NaN
	}
	for k, v := range want {
		if !near(out[k], v) {
			t.Errorf("%s = %v, want %v", k, out[k], v)
		}
	}
}

func TestServerLayersSplitClientLatency(t *testing.T) {
	p := &kvPhase{}
	for i := 0; i < 10; i++ {
		p.get.add(100 * time.Microsecond)
		p.put.add(200 * time.Microsecond)
	}
	before := promSample{}
	after := promSample{
		`kvserver_request_micros_sum{op="get"}`: 300, `kvserver_requests_total{op="get"}`: 10,
		`kvserver_request_micros_sum{op="put"}`: 500, `kvserver_requests_total{op="put"}`: 10,
		"kvserver_bytes_in_total": 6000, "kvserver_bytes_out_total": 4000,
		"kvserver_op_errors_total": 2,
	}
	out := map[string]float64{"lsm.get_us": 10, "lsm.write_us": 20}
	serverLayers(p, before, after, out)
	want := map[string]float64{
		"server.wire_get_us":   70,
		"server.wire_put_us":   150,
		"server.router_get_us": 20,
		"server.router_put_us": 30,
		"server.bytes_per_op":  500,
		"server.op_errors":     2,
		// (700 + 1500) of (1000 + 2000) client microseconds are outside the server.
		"trace.unexplained_frac": 2200.0 / 3000,
	}
	for k, v := range want {
		if !near(out[k], v) {
			t.Errorf("%s = %v, want %v", k, out[k], v)
		}
	}
}

func TestValuesCarryIDAndChecksum(t *testing.T) {
	v := appendValue(nil, 7, 12345, 3, 400)
	if len(v) != 400 {
		t.Fatalf("len = %d", len(v))
	}
	id, ver, err := parseValue(v)
	if err != nil || id != 12345 || ver != 3 {
		t.Fatalf("parse = %d v%d %v", id, ver, err)
	}
	if _, err := checkValue(v, 7, 12345, 3, 400, nil); err != nil {
		t.Errorf("exact value rejected: %v", err)
	}
	if _, err := checkValue(v, 7, 12345, 4, 400, nil); err == nil {
		t.Error("older version accepted as the newer one")
	}
	if _, err := checkValue(v, 8, 12345, 3, 400, nil); err == nil {
		t.Error("value of another seed accepted")
	}
	bad := append([]byte(nil), v...)
	bad[200] ^= 1
	if _, _, err := parseValue(bad); !errors.Is(err, errBadValue) {
		t.Errorf("flipped bit: %v", err)
	}
	if _, _, err := parseValue(v[:10]); err == nil {
		t.Error("short value accepted")
	}
	if k := string(appendKey(nil, 42)); k != "key0000000000042" || len(k) != keyLen {
		t.Errorf("key = %q", k)
	}
	if a, b := string(appendKey(nil, 9)), string(appendKey(nil, 10)); a >= b {
		t.Errorf("keys do not sort by id: %q >= %q", a, b)
	}
}

func TestParetoLengths(t *testing.T) {
	var sum int
	for id := uint64(0); id < 20000; id++ {
		n := paretoLen(1, id, 1)
		if n < 300 || n > 4096 {
			t.Fatalf("length %d out of [300, 4096]", n)
		}
		sum += n
	}
	if mean := float64(sum) / 20000; mean < 380 || mean > 420 {
		t.Errorf("mean length %v, want about 400", mean)
	}
	if paretoLen(1, 5, 2) != paretoLen(1, 5, 2) {
		t.Error("length is not a function of (seed, id, version)")
	}
}

func TestZipfSkew(t *testing.T) {
	const n = 1000
	z := newZipf(n, 0.99)
	counts := make([]int, n)
	st := uint64(1)
	const draws = 200_000
	for i := 0; i < draws; i++ {
		u := float64(splitmix64(&st)>>11) / (1 << 53)
		r := z.rank(u)
		if r >= n {
			t.Fatalf("rank %d out of range", r)
		}
		counts[r]++
	}
	if got, want := float64(counts[0])/draws, 1/z.zetan; math.Abs(got-want) > 0.1*want {
		t.Errorf("P(rank 0) = %v, want %v", got, want)
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] {
		t.Errorf("ranks not skewed: %d %d %d", counts[0], counts[1], counts[10])
	}
	if s := scramble(3, n); s >= n {
		t.Errorf("scramble out of range: %d", s)
	}
}

func TestSelfTimeSubtractsCoveredChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "a", Start: 20, End: 50},
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120}, // clipped to 90..100
	}
	st := selfTimes(spans)
	if r := st["root"]; r.SelfNS != 50 || r.TotalNS != 100 || r.Count != 1 {
		t.Errorf("root = %+v, want self 50 of 100", r)
	}
	if a := st["a"]; a.Count != 2 || a.TotalNS != 50 || a.SelfNS != 50 {
		t.Errorf("a = %+v", a)
	}
}

func TestTracerRecordsNestedSpans(t *testing.T) {
	tr := newTracer()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b := tr.buf()
			for i := 0; i < 100; i++ {
				root := b.begin("op", uint64(i), 0)
				now := time.Now()
				b.record("call", uint64(i), root, now, now.Add(time.Microsecond))
				b.end(root)
			}
		}()
	}
	wg.Wait()
	spans := tr.all()
	if len(spans) != 800 {
		t.Fatalf("%d spans, want 800", len(spans))
	}
	ids := map[uint64]bool{}
	for _, s := range spans {
		if ids[s.ID] {
			t.Fatalf("duplicate span id %d", s.ID)
		}
		ids[s.ID] = true
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
	}
	for _, s := range spans {
		if s.Parent != 0 && !ids[s.Parent] {
			t.Fatalf("span %d has unknown parent %d", s.ID, s.Parent)
		}
	}
	var nilTracer *tracer
	if b := nilTracer.buf(); b.record("x", 1, 0, time.Now(), time.Now()) != 0 {
		t.Error("nil tracer recorded a span")
	}
}

func TestParseProm(t *testing.T) {
	s, err := parseProm(strings.NewReader("# TYPE a counter\na 3\nb{op=\"get\"} 2.5\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s["a"] != 3 || s[`b{op="get"}`] != 2.5 || len(s) != 2 {
		t.Errorf("parsed %v", s)
	}
	if _, err := parseProm(strings.NewReader("novalue\n")); err == nil {
		t.Error("malformed line accepted")
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric and
// workload tables of main.go in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("workloads %v, main.go has %v", names, want)
	}
	check := func(kind string, got []struct{ Name, Unit string }, specs []metricSpec) {
		if len(got) != len(specs) {
			t.Errorf("%s: %d metrics, main.go has %d", kind, len(got), len(specs))
			return
		}
		for i, m := range specs {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Errorf("%s[%d] = %s (%s), main.go has %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
}
