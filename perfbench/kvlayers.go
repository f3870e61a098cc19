package main

import (
	"sort"
	"strings"
	"time"

	"repro/internal/lsm"
)

// window is the slice of a measured phase that end-to-end figures are
// computed over. A run reports medians across the whole windows of all its
// parts in which the hypervisor stole the least CPU time (leastStolen), so
// a burst of outside load does not move the result. Half a second keeps
// such bursts short against the run, and leaves every window of a
// key-value workload over a hundred samples beyond its p99.
const window = 500 * time.Millisecond

// windows holds one caller's op latencies by the window each op finished in.
type windows []samples

func (w *windows) add(phaseStart, end time.Time, d time.Duration) {
	i := int(end.Sub(phaseStart) / window)
	for len(*w) <= i {
		*w = append(*w, samples{})
	}
	(*w)[i].add(d)
}

func (w *windows) merge(o windows) {
	for len(*w) < len(o) {
		*w = append(*w, samples{})
	}
	for i := range o {
		(*w)[i].merge(&o[i])
	}
}

// sampleSteal records the host's stolen CPU share in each of the n windows
// that follow start. The returned function waits for the last window to
// end and returns the shares.
func sampleSteal(start time.Time, n int) func() []float64 {
	done := make(chan []float64, 1)
	go func() {
		var shares []float64
		prev := readCPUTicks()
		for i := 1; i <= n; i++ {
			time.Sleep(time.Until(start.Add(time.Duration(i) * window)))
			cur := readCPUTicks()
			shares = append(shares, cur.stealFrac(prev))
			prev = cur
		}
		done <- shares
	}()
	return func() []float64 { return <-done }
}

// kvPhase is what one measured phase of a key-value workload observed from
// the caller's side.
type kvPhase struct {
	get, put  samples
	wins      windows   // every op, Get and Put together, by window
	full      int       // whole windows in the phase
	steal     []float64 // host CPU share stolen in each whole window
	elapsedS  float64
	userBytes int64 // key + value bytes of acknowledged puts
}

func (p *kvPhase) ops() int { return p.get.len() + p.put.len() }

func (p *kvPhase) opsPerS() float64 { return ratio(float64(p.ops()), p.elapsedS) }

// winStat is one whole window's figures. Parts pass them to the parent
// process, which pools the windows of all parts.
type winStat struct {
	Steal   float64 `json:"steal"`
	OpsPerS float64 `json:"ops_per_s"`
	P50US   float64 `json:"p50_us"`
	P99US   float64 `json:"p99_us"`
	N       int     `json:"n"`
}

// windowStats returns the figures of each whole window of the phase.
func (p *kvPhase) windowStats() []winStat {
	var out []winStat
	for i := 0; i < p.full && i < len(p.wins); i++ {
		w := &p.wins[i]
		s := winStat{OpsPerS: float64(w.len()) / window.Seconds(), P50US: w.percentile(50).US, P99US: w.percentile(99).US, N: w.len()}
		if i < len(p.steal) {
			s.Steal = p.steal[i]
		}
		out = append(out, s)
	}
	return out
}

// leastStolen returns the windows the end-to-end figures come from: the
// third (rounded up) in which the hypervisor stole the least CPU time, as
// a window slowed by another guest does not measure the program; a few
// percent of steal already moves a window's p99. Every window that stole
// no more than the last of that third is kept too, so ties are not broken
// by position.
func leastStolen(ws []winStat) []winStat {
	if len(ws) == 0 {
		return nil
	}
	steal := make([]float64, len(ws))
	for i, w := range ws {
		steal[i] = w.Steal
	}
	sort.Float64s(steal)
	limit := steal[(len(ws)+2)/3-1]
	var out []winStat
	for _, w := range ws {
		if w.Steal <= limit {
			out = append(out, w)
		}
	}
	return out
}

// windowFigures sets the end-to-end figures of a key-value run: the
// medians, over its least-stolen windows, of throughput, p50 and p99.
func windowFigures(ws []winStat, out map[string]float64, detail map[string]any) {
	used := leastStolen(ws)
	var rates, p50s, p99s []float64
	fewest := 0
	for i, w := range used {
		rates = append(rates, w.OpsPerS)
		p50s = append(p50s, w.P50US)
		p99s = append(p99s, w.P99US)
		if i == 0 || w.N < fewest {
			fewest = w.N
		}
	}
	detail["windows_used"] = len(used)
	detail["window_fewest_samples"] = fewest
	out["ops_per_s"] = median(rates)
	out["p50_us"] = median(p50s)
	out["p99_us"] = median(p99s)
}

// median of xs (0 when empty); xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	if len(xs)%2 == 1 {
		return xs[len(xs)/2]
	}
	return (xs[len(xs)/2-1] + xs[len(xs)/2]) / 2
}

// promName maps a RocksDB dotted name to the exporter's series name.
func promName(name string) string {
	return strings.NewReplacer(".", "_", "-", "_").Replace(name)
}

// engineSample renders an embedded engine's counters under the same series
// names cmd/kvserver's /metrics uses, so one derivation serves both the
// networked and the embedded workload.
func engineSample(db *lsm.DB) promSample {
	s := make(promSample)
	db.Statistics().Each(func(name string, v int64) { s[promName(name)] = float64(v) })
	for _, h := range db.Histograms().Snapshot() {
		s[promName(h.Name)+"_sum"] = float64(h.Sum)
		s[promName(h.Name)+"_count"] = float64(h.Count)
	}
	for name, v := range db.PerfContext().Snapshot() {
		s["lsm_perf_"+promName(name)] = float64(v)
	}
	m := db.GetMetrics()
	s["lsm_total_sst_bytes"] = float64(m.TotalSSTBytes)
	return s
}

// engineLayers derives the engine's per-layer metrics from the counter
// deltas between two samples. Engine histograms record whole microseconds,
// so means below ~10 us are lower bounds.
func engineLayers(before, after promSample, out map[string]float64) {
	d := func(name string) float64 { return after.delta(before, name) }
	mean := func(hist string) float64 { return ratio(d(hist+"_sum"), d(hist+"_count")) }
	gets := d("rocksdb_db_get_micros_count")

	out["lsm.write_us"] = mean("rocksdb_db_write_micros")
	out["lsm.write_join_us"] = mean("rocksdb_db_write_join_micros")
	out["lsm.write_group_size"] = mean("rocksdb_db_write_group_size")
	out["lsm.wal_sync_us"] = mean("rocksdb_wal_file_sync_micros")
	out["lsm.stall_us"] = d("rocksdb_stall_micros")
	out["lsm.stalled_writes"] = d("rocksdb_stall_slowdown_writes") + d("rocksdb_stall_stopped_writes")

	out["lsm.get_us"] = mean("rocksdb_db_get_micros")
	out["lsm.memtable_hit_ratio"] = hitRatio(d("rocksdb_memtable_hit"), d("rocksdb_memtable_miss"))
	out["lsm.block_cache_hit_ratio"] = hitRatio(d("rocksdb_block_cache_hit"), d("rocksdb_block_cache_miss"))
	// checked counts tables the filter let through, useful those it excluded.
	out["lsm.bloom_useful_ratio"] = hitRatio(d("rocksdb_bloom_filter_useful"), d("rocksdb_bloom_filter_checked"))
	out["lsm.table_cache_hit_ratio"] = hitRatio(d("rocksdb_table_cache_hit"), d("rocksdb_table_cache_miss"))
	// Every block-cache miss is one block read from a table file.
	out["lsm.blocks_read_per_get"] = ratio(d("rocksdb_block_cache_miss"), gets)
	out["lsm.perf.get_files_us"] = ratio(d("lsm_perf_get_from_output_files_time"), gets) / 1e3
	out["lsm.perf.block_read_us"] = ratio(d("lsm_perf_block_read_time"), gets) / 1e3

	out["lsm.flushes"] = d("rocksdb_flush_count")
	out["lsm.compactions"] = d("rocksdb_compaction_count")
	out["lsm.flush_bytes"] = d("rocksdb_flush_write_bytes")
	out["lsm.compact_read_bytes"] = d("rocksdb_compact_read_bytes")
	out["lsm.compact_write_bytes"] = d("rocksdb_compact_write_bytes")
}

// clientLayers reports the caller-side latency split of a phase.
func clientLayers(p *kvPhase, out map[string]float64) {
	out["kv.get_p50_us"] = p.get.percentile(50).US
	out["kv.get_p99_us"] = p.get.percentile(99).US
	out["kv.put_p50_us"] = p.put.percentile(50).US
	out["kv.put_p99_us"] = p.put.percentile(99).US
}

// kvEndToEnd fills the end-to-end metrics of one key-value phase from its
// windows, and records the windows in detail for the parent to pool.
func kvEndToEnd(p *kvPhase, out map[string]float64, detail map[string]any) {
	ws := p.windowStats()
	detail["window_s"] = window.Seconds()
	detail["windows"] = ws
	detail["get_p50"], detail["get_p99"] = p.get.percentile(50), p.get.percentile(99)
	detail["put_p50"], detail["put_p99"] = p.put.percentile(50), p.put.percentile(99)
	windowFigures(ws, out, detail)
}
