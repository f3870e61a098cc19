package main

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/lsm"
)

// readrandom_cold: an embedded lsm.DB in the benchmark's process on the OS
// file system, preloaded with sizes.rrKeys even ids of rrValueLen bytes in a
// seeded random order, flushed and settled, then read by nproc closed-loop
// callers. One probe in four asks for an odd id, which is absent but lies
// inside the table files' key ranges, so only the bloom filter can reject
// it without reading a block.
const (
	rrValueLen = 400
	rrBatch    = 100
)

func rrOptions() (*lsm.ConfigSet, error) {
	cfg := lsm.NewConfigSet(lsm.DBBenchDefaults())
	for _, kv := range [][2]string{
		{"filter_policy", "bloomfilter:10:false"},
		{"compression", "none"},
	} {
		if err := cfg.Default.SetByName(kv[0], kv[1]); err != nil {
			return nil, err
		}
	}
	return cfg, cfg.Validate()
}

// setUpRR opens a fresh database in dir, preloads it and waits for its
// background work to finish. It returns the engine counters before the
// preload so the caller can measure the preload's own work.
func setUpRR(rc *runCtx, cfg *lsm.ConfigSet, dir string) (*lsm.DB, promSample, error) {
	db, err := lsm.OpenConfig(dir, cfg.Clone())
	if err != nil {
		return nil, nil, fmt.Errorf("open: %w", err)
	}
	before := engineSample(db)
	keys := rc.sz.rrKeys
	order := rand.New(rand.NewSource(rc.seed)).Perm(keys)
	var next atomic.Int64
	var loadErr atomic.Value
	var wg sync.WaitGroup
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := lsm.NewWriteBatch()
			var key, val []byte
			for {
				lo := int(next.Add(rrBatch) - rrBatch)
				if lo >= keys {
					return
				}
				batch.Clear()
				for _, i := range order[lo:min(lo+rrBatch, keys)] {
					id := uint64(2 * i)
					key = appendKey(key[:0], id)
					val = appendValue(val[:0], rc.seed, id, 1, rrValueLen)
					batch.Put(key, val)
				}
				if err := db.Write(nil, batch); err != nil {
					loadErr.Store(err)
					return
				}
				rc.wd.tick()
			}
		}()
	}
	wg.Wait()
	if err, _ := loadErr.Load().(error); err != nil {
		db.Close()
		return nil, nil, fmt.Errorf("preload: %w", err)
	}
	if err := db.Flush(); err != nil {
		db.Close()
		return nil, nil, fmt.Errorf("flush: %w", err)
	}
	if err := db.WaitForBackgroundIdle(); err != nil {
		db.Close()
		return nil, nil, fmt.Errorf("settle: %w", err)
	}
	return db, before, nil
}

// loadRR runs the closed loop of Gets for d.
func loadRR(rc *runCtx, db *lsm.DB, d time.Duration, tr *tracer, phase int) *kvPhase {
	n := runtime.NumCPU()
	got := make([]windows, n)
	var wg sync.WaitGroup
	start := time.Now()
	stop := start.Add(d)
	steal := sampleSteal(start, int(d/window))
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(rc.seed*7919 + int64(phase)*1_000_003 + int64(w)))
			spans := tr.buf()
			req := uint64(w) << 40
			var key, scratch []byte
			for time.Now().Before(stop) {
				i := uint64(rng.Intn(rc.sz.rrKeys - 1))
				id, absent := 2*i, rng.Intn(4) == 0
				if absent {
					id++
				}
				key = appendKey(key[:0], id)
				req++
				rc.tally.attempted.Add(1)
				t0 := time.Now()
				v, err := db.Get(nil, key)
				t1 := time.Now()
				got[w].add(start, t1, t1.Sub(t0))
				switch {
				case absent && errors.Is(err, lsm.ErrNotFound):
				case err != nil && !errors.Is(err, lsm.ErrNotFound):
					rc.tally.failed.Add(1)
				case absent || err != nil:
					rc.tally.wrong.Add(1)
				default:
					if scratch, err = checkValue(v, rc.seed, id, 1, rrValueLen, scratch); err != nil {
						rc.tally.wrong.Add(1)
					}
				}
				if spans != nil {
					root := spans.record("readrandom.get", req, 0, t0, time.Now())
					spans.record("lsm.DB.Get", req, root, t0, t1)
				}
				rc.wd.tick()
			}
		}(w)
	}
	wg.Wait()
	p := &kvPhase{elapsedS: time.Since(start).Seconds(), full: int(d / window), steal: steal()}
	for w := range got {
		p.wins.merge(got[w])
		for i := range got[w] {
			p.get.merge(&got[w][i])
		}
	}
	return p
}

func runReadrandom(rc *runCtx) (*outcome, error) {
	out := newOutcome()
	cfg, err := rrOptions()
	if err != nil {
		return nil, err
	}
	rc.fp.OptionsHash["readrandom_cold"] = sha256Hex(iniBytes(cfg.ToINI()))
	userBytes := float64(rc.sz.rrKeys * (keyLen + rrValueLen))
	rc.fp.Dataset = fmt.Sprintf("%d ids x %d B values = %.0f MB of user data; block cache %d MiB (%.0fx smaller)",
		rc.sz.rrKeys, rrValueLen, userBytes/1e6, cfg.Default.BlockCacheSize>>20, userBytes/float64(cfg.Default.BlockCacheSize))
	rc.fp.FlushPolicy = "WAL on, sync=false, memtable flush at write_buffer_size (default 64 MiB), explicit Flush after the preload, compression none"

	dir := filepath.Join(rc.dir, "db")
	start := time.Now()
	db, loadBefore, err := setUpRR(rc, cfg, dir)
	if err != nil {
		return nil, err
	}
	out.setup = time.Since(start)
	defer db.Close()
	loaded := engineSample(db)
	// Every run starts timing from the same heap state: the preload's
	// garbage collected.
	runtime.GC()

	var untraced *kvPhase
	var tr *tracer
	measure := rc.seconds
	if rc.trace {
		measure = rc.seconds / 2
		untraced = loadRR(rc, db, measure, nil, 0)
		db.SetPerfLevel(lsm.PerfEnableTime)
		tr = newTracer()
	}
	before, rtBefore := engineSample(db), readRuntime()
	p := loadRR(rc, db, measure, tr, 1)
	after, rtAfter := engineSample(db), readRuntime()

	rss, err := peakRSSMB(0)
	if err != nil {
		return nil, err
	}
	walBytes, err := dirBytes(dir, ".log")
	if err != nil {
		return nil, err
	}
	kvEndToEnd(p, out.e2e, rc.detail)
	out.layers["runtime.peak_rss_mb"] = rss

	L := out.layers
	engineLayers(before, after, L)
	clientLayers(p, L)
	runtimeLayers(rtBefore, rtAfter, float64(p.ops()), L)
	// The preload is this workload's only write and background work.
	var pre = map[string]float64{}
	engineLayers(loadBefore, loaded, pre)
	for _, k := range []string{"lsm.write_us", "lsm.write_join_us", "lsm.write_group_size", "lsm.wal_sync_us",
		"lsm.stall_us", "lsm.stalled_writes", "lsm.flushes", "lsm.compactions", "lsm.flush_bytes",
		"lsm.compact_read_bytes", "lsm.compact_write_bytes"} {
		L[k] = pre[k]
	}
	d := func(name string) float64 { return loaded.delta(loadBefore, name) }
	L["lsm.write_amp"] = writeAmp(d("rocksdb_wal_bytes"), d("rocksdb_flush_write_bytes"), d("rocksdb_compact_write_bytes"), userBytes)
	L["lsm.space_amp"] = spaceAmp(after["lsm_total_sst_bytes"], float64(walBytes), userBytes)
	if untraced != nil {
		L["trace.overhead_frac"] = 1 - ratio(p.opsPerS(), untraced.opsPerS())
		rc.detail["untraced_ops_per_s"] = untraced.opsPerS()
		// The engine's own phase timers (memtable, then table files)
		// against the caller-side Get span.
		gets := after.delta(before, "rocksdb_db_get_micros_count")
		explainedUS := ratio(after.delta(before, "lsm_perf_get_from_memtable_time")+
			after.delta(before, "lsm_perf_get_from_output_files_time"), gets) / 1e3
		L["trace.unexplained_frac"] = ratio(p.get.meanUS()-explainedUS, p.get.meanUS())
	}
	if tr != nil {
		spans := tr.all()
		rc.detail["self_times"] = selfTimes(spans)
		path := filepath.Join(filepath.Dir(rc.dir), "readrandom_cold.spans.jsonl")
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		rc.detail["spans_file"] = path
	}
	return out, nil
}
