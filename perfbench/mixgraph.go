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
	"repro/internal/server"
)

// mixgraph_server: the cmd/kvserver binary as a child process with two
// shards, driven over loopback by a closed loop of nproc connections with
// mixCallersPerConn callers each. Half the ops are Get and half Put; keys
// follow a scrambled Zipf (theta 0.99) over sizes.mixKeys ids, the first
// half of which is preloaded; values are Pareto-sized around 400 B.
//
// Two callers still overlap requests in each connection's pipeline. Every
// request in flight when the hypervisor stops a CPU is delayed, so more
// callers would move the p99 at a smaller share of stolen time.
const (
	mixShards         = 2
	mixCallersPerConn = 2
	mixBatch          = 100  // puts per preload batch
	mixReadBack       = 2000 // acked keys read back after the restart
	// maxCallersPerClient caps the goroutines sharing one server.Client.
	// Past a few hundred, the client's write loop can park on its pending
	// queue while holding unflushed frames the server never sees, and the
	// read loop then waits forever.
	maxCallersPerClient = 64
	mixStripes          = 1024
)

// mixOptions is the pinned configuration of every shard.
func mixOptions() (*lsm.ConfigSet, error) {
	cfg := lsm.NewConfigSet(lsm.DBBenchDefaults())
	for _, kv := range [][2]string{
		{"write_buffer_size", "4194304"},
		{"block_cache", "268435456"},
		{"compression", "none"},
	} {
		if err := cfg.Default.SetByName(kv[0], kv[1]); err != nil {
			return nil, err
		}
	}
	return cfg, cfg.Validate()
}

// mixState is the key space as the load generator knows it. Puts to one id are
// serialized by a striped lock, so acked[id] is the version the store must
// hold once no put to id is in flight, and a Get that starts after a put
// is acknowledged must see that version or a later one.
type mixState struct {
	seed   int64
	keys   int             // ids [0, keys/2) are preloaded
	acked  []atomic.Uint32 // last acknowledged version; 0 = never written
	issued []atomic.Uint32 // highest version sent
	locks  [mixStripes]sync.Mutex
	zipf   *zipf
}

func newMixState(seed int64, keys int) *mixState {
	return &mixState{
		seed:   seed,
		keys:   keys,
		acked:  make([]atomic.Uint32, keys),
		issued: make([]atomic.Uint32, keys),
		zipf:   newZipf(uint64(keys), 0.99),
	}
}

// liveBytes is the user bytes of every key's acknowledged version.
func (s *mixState) liveBytes() int64 {
	var n int64
	for id := range s.acked {
		if v := s.acked[id].Load(); v > 0 {
			n += int64(keyLen + paretoLen(s.seed, uint64(id), v))
		}
	}
	return n
}

// mixServer is one running server with its clients.
type mixServer struct {
	proc    *kvProc
	clients []*server.Client
}

func (m *mixServer) closeClients() {
	for _, c := range m.clients {
		c.Close()
	}
	m.clients = nil
}

func dialN(addr string, n int) ([]*server.Client, error) {
	var cs []*server.Client
	for i := 0; i < n; i++ {
		c, err := server.Dial(addr)
		if err != nil {
			for _, c := range cs {
				c.Close()
			}
			return nil, fmt.Errorf("dial kvserver: %w", err)
		}
		cs = append(cs, c)
	}
	return cs, nil
}

// forCallers runs fn on callersPerConn goroutines per client and waits.
func forCallers(clients []*server.Client, callersPerConn int, fn func(idx int, c *server.Client)) {
	if callersPerConn > maxCallersPerClient {
		panic("perfbench: too many callers for one server.Client")
	}
	var wg sync.WaitGroup
	for i, c := range clients {
		for j := 0; j < callersPerConn; j++ {
			wg.Add(1)
			go func(idx int, c *server.Client) {
				defer wg.Done()
				fn(idx, c)
			}(i*callersPerConn+j, c)
		}
	}
	wg.Wait()
}

// setUpMix starts a server on a fresh directory, preloads it and waits
// until its background work has settled.
func setUpMix(rc *runCtx, st *mixState, dir, optsPath string) (*mixServer, error) {
	proc, err := startKV(rc.kvBin, dir, optsPath, mixShards)
	if err != nil {
		return nil, err
	}
	m := &mixServer{proc: proc}
	if m.clients, err = dialN(proc.addr, runtime.NumCPU()); err != nil {
		proc.kill()
		return nil, err
	}
	preload := int64(st.keys / 2)
	var next atomic.Int64
	var loadErr atomic.Value
	forCallers(m.clients, mixCallersPerConn, func(_ int, c *server.Client) {
		// Sized for the longest values, so appends never move the bytes
		// the entries point into.
		buf := make([]byte, 0, mixBatch*(keyLen+4096))
		entries := make([]server.BatchEntry, 0, mixBatch)
		for {
			lo := next.Add(mixBatch) - mixBatch
			if lo >= preload {
				return
			}
			entries, buf = entries[:0], buf[:0]
			for id := uint64(lo); id < uint64(min(lo+mixBatch, preload)); id++ {
				k := len(buf)
				buf = appendKey(buf, id)
				v := len(buf)
				buf = appendValue(buf, st.seed, id, 1, paretoLen(st.seed, id, 1))
				entries = append(entries, server.BatchEntry{Key: buf[k:v], Value: buf[v:]})
			}
			if err := c.Batch(entries); err != nil {
				loadErr.Store(err)
				return
			}
			rc.wd.tick()
		}
	})
	if err, _ := loadErr.Load().(error); err != nil {
		m.closeClients()
		proc.kill()
		return nil, fmt.Errorf("preload: %w", err)
	}
	for id := int64(0); id < preload; id++ {
		st.acked[id].Store(1)
		st.issued[id].Store(1)
	}
	if err := settle(proc.metricsAddr, rc.wd); err != nil {
		m.closeClients()
		proc.kill()
		return nil, err
	}
	return m, nil
}

// settle waits until /metrics shows no running or pending flush or
// compaction.
func settle(metricsAddr string, wd *watchdog) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		s, err := scrape(metricsAddr)
		if err != nil {
			return err
		}
		if s["lsm_running_flushes"] == 0 && s["lsm_running_compactions"] == 0 &&
			s["lsm_pending_compaction_bytes"] == 0 && s["lsm_immutable_memtables"] == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("background work did not settle within 60s")
		}
		wd.tick()
		time.Sleep(20 * time.Millisecond)
	}
}

// mixCaller is one closed-loop caller's private state.
type mixCaller struct {
	rng               *rand.Rand
	get, put          samples
	wins              windows
	phaseStart        time.Time
	userBytes         int64
	key, val, scratch []byte
	spans             *spanBuf
	req               uint64
}

// op issues one request and books it.
func (c *mixCaller) op(rc *runCtx, st *mixState, cl *server.Client) {
	id := scramble(st.zipf.rank(c.rng.Float64()), uint64(st.keys))
	c.key = appendKey(c.key[:0], id)
	c.req++
	rc.tally.attempted.Add(1)
	if c.rng.Intn(2) == 0 {
		c.doGet(rc, st, cl, id)
	} else {
		c.doPut(rc, st, cl, id)
	}
	rc.wd.tick()
}

func (c *mixCaller) doGet(rc *runCtx, st *mixState, cl *server.Client, id uint64) {
	floor := st.acked[id].Load()
	start := time.Now()
	v, err := cl.Get("", c.key)
	end := time.Now()
	d := end.Sub(start)
	c.get.add(d)
	c.wins.add(c.phaseStart, end, d)
	switch {
	case errors.Is(err, server.ErrNotFound):
		if floor > 0 {
			rc.tally.wrong.Add(1)
		}
	case err != nil:
		rc.tally.failed.Add(1)
	default:
		gotID, ver, perr := parseValue(v)
		if perr != nil || gotID != id || ver < floor || ver > st.issued[id].Load() {
			rc.tally.wrong.Add(1)
		} else if c.scratch, err = checkValue(v, st.seed, id, ver, paretoLen(st.seed, id, ver), c.scratch); err != nil {
			rc.tally.wrong.Add(1)
		}
	}
	if c.spans != nil {
		root := c.spans.record("mixgraph.get", c.req, 0, start, time.Now())
		c.spans.record("server.Client.Get", c.req, root, start, end)
	}
}

func (c *mixCaller) doPut(rc *runCtx, st *mixState, cl *server.Client, id uint64) {
	start := time.Now()
	mu := &st.locks[id%mixStripes]
	mu.Lock()
	locked := time.Now()
	ver := st.acked[id].Load() + 1
	c.val = appendValue(c.val[:0], st.seed, id, ver, paretoLen(st.seed, id, ver))
	st.issued[id].Store(ver)
	err := cl.Put("", c.key, c.val)
	end := time.Now()
	if err == nil {
		st.acked[id].Store(ver)
		c.userBytes += int64(len(c.key) + len(c.val))
	} else {
		rc.tally.failed.Add(1)
	}
	mu.Unlock()
	// The latency is the call's. Time spent waiting on the load generator's
	// own key lock is not the server's; it is recorded as a span.
	c.put.add(end.Sub(locked))
	c.wins.add(c.phaseStart, end, end.Sub(locked))
	if c.spans != nil {
		root := c.spans.record("mixgraph.put", c.req, 0, start, time.Now())
		c.spans.record("loadgen.key_lock", c.req, root, start, locked)
		c.spans.record("server.Client.Put", c.req, root, locked, end)
	}
}

// loadMix runs the closed loop for d and returns what the callers saw.
func loadMix(rc *runCtx, st *mixState, clients []*server.Client, d time.Duration, tr *tracer, phase int) *kvPhase {
	start := time.Now()
	callers := make([]*mixCaller, len(clients)*mixCallersPerConn)
	for i := range callers {
		callers[i] = &mixCaller{
			rng:        rand.New(rand.NewSource(rc.seed*7919 + int64(phase)*1_000_003 + int64(i))),
			spans:      tr.buf(),
			req:        uint64(i) << 40,
			phaseStart: start,
		}
	}
	stop := start.Add(d)
	steal := sampleSteal(start, int(d/window))
	forCallers(clients, mixCallersPerConn, func(idx int, cl *server.Client) {
		c := callers[idx]
		for time.Now().Before(stop) {
			c.op(rc, st, cl)
		}
	})
	p := &kvPhase{elapsedS: time.Since(start).Seconds(), full: int(d / window), steal: steal()}
	for _, c := range callers {
		p.get.merge(&c.get)
		p.put.merge(&c.put)
		p.wins.merge(c.wins)
		p.userBytes += c.userBytes
	}
	return p
}

// serverLayers splits client-observed latency into the wire and pipeline
// (client span minus the server's own request time), the router (request
// time minus the engine's) and the engine, and adds the server counters.
func serverLayers(p *kvPhase, before, after promSample, out map[string]float64) {
	d := func(name string) float64 { return after.delta(before, name) }
	reqMean := func(op string) float64 {
		return ratio(d(`kvserver_request_micros_sum{op="`+op+`"}`), d(`kvserver_requests_total{op="`+op+`"}`))
	}
	getReq, putReq := reqMean("get"), reqMean("put")
	out["server.wire_get_us"] = p.get.meanUS() - getReq
	out["server.wire_put_us"] = p.put.meanUS() - putReq
	out["server.router_get_us"] = getReq - out["lsm.get_us"]
	out["server.router_put_us"] = putReq - out["lsm.write_us"]
	out["server.bytes_per_op"] = ratio(d("kvserver_bytes_in_total")+d("kvserver_bytes_out_total"), float64(p.ops()))
	out["server.op_errors"] = d("kvserver_op_errors_total")
	// What no counter of the program accounts for: the wire and pipeline
	// share of the mean op, which is the remainder by construction here.
	sum := p.get.meanUS()*float64(p.get.len()) + p.put.meanUS()*float64(p.put.len())
	inServer := getReq*float64(p.get.len()) + putReq*float64(p.put.len())
	out["trace.unexplained_frac"] = ratio(sum-inServer, sum)
}

func runMixgraph(rc *runCtx) (*outcome, error) {
	out := newOutcome()
	cfg, err := mixOptions()
	if err != nil {
		return nil, err
	}
	optsPath := filepath.Join(rc.dir, "OPTIONS-mixgraph")
	if err := cfg.ToINI().Save(optsPath); err != nil {
		return nil, err
	}
	rc.fp.OptionsHash["mixgraph_server"] = sha256Hex(iniBytes(cfg.ToINI()))
	rc.fp.Dataset = fmt.Sprintf("%d of %d ids preloaded, Pareto values mean 400 B (~%d MB live); block cache 256 MiB per shard x %d shards",
		rc.sz.mixKeys/2, rc.sz.mixKeys, rc.sz.mixKeys*(keyLen+400)/1_000_000, mixShards)
	rc.fp.FlushPolicy = "WAL on, sync=false, memtable flush at write_buffer_size=4 MiB per shard, compression none"

	st := newMixState(rc.seed, rc.sz.mixKeys)
	dataDir := filepath.Join(rc.dir, "db")
	start := time.Now()
	srv, err := setUpMix(rc, st, dataDir, optsPath)
	if err != nil {
		return nil, err
	}
	out.setup = time.Since(start)
	defer srv.proc.kill()

	rtBefore := readRuntime()
	var untraced *kvPhase
	measure := rc.seconds
	if rc.trace {
		// Untraced first half, traced second half: the ratio is the
		// tracing overhead.
		measure = rc.seconds / 2
		untraced = loadMix(rc, st, srv.clients, measure, nil, 0)
		rtBefore = readRuntime()
	}
	before, err := scrape(srv.proc.metricsAddr)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if rc.trace {
		tr = newTracer()
	}
	p := loadMix(rc, st, srv.clients, measure, tr, 1)
	after, err := scrape(srv.proc.metricsAddr)
	if err != nil {
		return nil, err
	}
	rtAfter := readRuntime()
	srv.closeClients()

	rss, err := peakRSSMB(srv.proc.pid())
	if err != nil {
		return nil, err
	}
	walBytes, err := dirBytes(dataDir, ".log")
	if err != nil {
		return nil, err
	}
	kvEndToEnd(p, out.e2e, rc.detail)
	out.layers["runtime.peak_rss_mb"] = rss

	L := out.layers
	engineLayers(before, after, L)
	serverLayers(p, before, after, L)
	clientLayers(p, L)
	runtimeLayers(rtBefore, rtAfter, float64(p.ops()), L)
	d := func(name string) float64 { return after.delta(before, name) }
	L["lsm.write_amp"] = writeAmp(d("rocksdb_wal_bytes"), d("rocksdb_flush_write_bytes"), d("rocksdb_compact_write_bytes"), float64(p.userBytes))
	L["lsm.space_amp"] = spaceAmp(after["lsm_total_sst_bytes"], float64(walBytes), float64(st.liveBytes()))
	if untraced != nil {
		L["trace.overhead_frac"] = 1 - ratio(p.opsPerS(), untraced.opsPerS())
		rc.detail["untraced_ops_per_s"] = untraced.opsPerS()
	}
	if tr != nil {
		spans := tr.all()
		rc.detail["self_times"] = selfTimes(spans)
		path := filepath.Join(filepath.Dir(rc.dir), "mixgraph_server.spans.jsonl")
		if err := writeSpans(path, spans); err != nil {
			return nil, err
		}
		rc.detail["spans_file"] = path
	}
	rc.detail["flushes"], rc.detail["compactions"] = d("rocksdb_flush_count"), d("rocksdb_compaction_count")

	// Durability: a clean SIGINT shutdown, a restart on the same directory,
	// and a read-back of acknowledged keys.
	if err := srv.proc.interrupt(); err != nil {
		out.check(false, "shutdown: %v", err)
		return out, nil
	}
	if err := readBack(rc, st, dataDir, optsPath, out); err != nil {
		return nil, err
	}
	return out, nil
}

// readBack restarts the server on dataDir and checks that a seeded sample
// of acknowledged keys holds exactly the last acknowledged value.
func readBack(rc *runCtx, st *mixState, dataDir, optsPath string, out *outcome) error {
	proc, err := startKV(rc.kvBin, dataDir, optsPath, mixShards)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	defer proc.kill()
	cl, err := server.Dial(proc.addr)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	defer cl.Close()
	rng := rand.New(rand.NewSource(rc.seed ^ 0x5eed))
	var key, scratch []byte
	wrong := 0
	for i := 0; i < mixReadBack; i++ {
		id := uint64(rng.Intn(st.keys))
		ver := st.acked[id].Load()
		key = appendKey(key[:0], id)
		rc.tally.attempted.Add(1)
		v, err := cl.Get("", key)
		switch {
		case ver == 0 && errors.Is(err, server.ErrNotFound):
		case err != nil && !errors.Is(err, server.ErrNotFound):
			rc.tally.failed.Add(1)
		case err != nil || ver == 0:
			rc.tally.wrong.Add(1)
			wrong++
		default:
			if scratch, err = checkValue(v, st.seed, id, ver, paretoLen(st.seed, id, ver), scratch); err != nil {
				rc.tally.wrong.Add(1)
				wrong++
			}
		}
		rc.wd.tick()
	}
	out.check(wrong == 0, "restart read-back: %d of %d keys wrong", wrong, mixReadBack)
	if err := proc.interrupt(); err != nil {
		out.check(false, "second shutdown: %v", err)
	}
	return nil
}
