package lsm

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/device"
)

func TestSimEnvFiles(t *testing.T) {
	env := testSimEnv()
	w, err := env.NewWritableFile("/dir/file", IOForeground)
	if err != nil {
		t.Fatal(err)
	}
	w.Append([]byte("hello "))
	w.Append([]byte("world"))
	w.Close()
	if err := w.Append([]byte("x")); err == nil {
		t.Fatal("append after close accepted")
	}

	if !env.FileExists("/dir/file") {
		t.Fatal("file missing")
	}
	if n, _ := env.FileSize("/dir/file"); n != 11 {
		t.Fatalf("size = %d", n)
	}
	r, err := env.NewRandomAccessFile("/dir/file", IOForeground)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if err := r.ReadAt(buf, 6, HintRandom); err != nil || string(buf) != "world" {
		t.Fatalf("ReadAt = %q, %v", buf, err)
	}
	if err := r.ReadAt(buf, 100, HintRandom); err == nil {
		t.Fatal("out-of-range read accepted")
	}

	if err := env.Rename("/dir/file", "/dir/file2"); err != nil {
		t.Fatal(err)
	}
	if env.FileExists("/dir/file") || !env.FileExists("/dir/file2") {
		t.Fatal("rename failed")
	}
	names, err := env.List("/dir")
	if err != nil || len(names) != 1 || names[0] != "file2" {
		t.Fatalf("List = %v, %v", names, err)
	}
	if err := env.Remove("/dir/file2"); err != nil {
		t.Fatal(err)
	}
	if err := env.Remove("/dir/file2"); err == nil {
		t.Fatal("double remove accepted")
	}
	if _, err := env.NewRandomAccessFile("/nope", IOForeground); err == nil {
		t.Fatal("open of missing file accepted")
	}
}

func TestSimEnvOpCostAccumulates(t *testing.T) {
	env := testSimEnv()
	env.TakeOpCost()
	env.ChargeCPU(10 * time.Microsecond)
	env.ChargeStall(time.Millisecond)
	cost := env.TakeOpCost()
	if cost < time.Millisecond+9*time.Microsecond {
		t.Fatalf("opCost = %v", cost)
	}
	if env.TakeOpCost() != 0 {
		t.Fatal("TakeOpCost did not reset")
	}
	if env.Stats().TotalStall < time.Millisecond {
		t.Fatal("stall not counted")
	}
}

func TestSimEnvPageCacheHitVsMiss(t *testing.T) {
	env := NewSimEnv(device.SATAHDD(), device.Profile4C8G(), 1)
	// Foreground appends (WAL-style) populate the page cache; background
	// streams do not (kernel drop-behind).
	w, _ := env.NewWritableFile("/f", IOForeground)
	w.Append(make([]byte, 1<<20))
	w.Close()
	// Fresh foreground writes land in page cache: first read is a hit.
	r, _ := env.NewRandomAccessFile("/f", IOForeground)
	env.TakeOpCost()
	buf := make([]byte, 4096)
	r.ReadAt(buf, 0, HintRandom)
	hot := env.TakeOpCost()
	if hot > time.Millisecond {
		t.Fatalf("page-cache hit cost %v, want microseconds", hot)
	}
	// Evict by collapsing the page-cache budget (engine claims all memory)
	// and inserting one more chunk.
	env.SetEngineMemCallback(func() int64 { return device.Profile4C8G().MemoryBytes })
	spill, _ := env.NewWritableFile("/spill", IOForeground)
	spill.Append(make([]byte, simPageChunk))
	spill.Close()
	env.TakeOpCost()
	r.ReadAt(buf, 0, HintRandom)
	cold := env.TakeOpCost()
	if cold < 3*time.Millisecond {
		t.Fatalf("expected HDD-milliseconds for cold read, got %v", cold)
	}
	st := env.Stats()
	if st.PageCacheHits == 0 || st.PageCacheMisses == 0 {
		t.Fatalf("page cache stats: %+v", st)
	}
}

func TestSimEnvMemoryPressureShrinksPageCache(t *testing.T) {
	small := NewSimEnv(device.NVMe(), device.Profile2C4G(), 1)
	// Engine claims nearly all memory: page cache budget collapses.
	small.SetEngineMemCallback(func() int64 { return 3 * device.GiB })
	w, _ := small.NewWritableFile("/f", IOBackground)
	w.Append(make([]byte, 4<<20))
	w.Close()
	budget := small.pageBudgetLocked()
	if budget > device.GiB {
		t.Fatalf("page budget %d too large under memory pressure", budget)
	}
	big := NewSimEnv(device.NVMe(), device.Profile4C8G(), 1)
	big.SetEngineMemCallback(func() int64 { return 128 << 20 })
	if big.pageBudgetLocked() <= budget {
		t.Fatal("more host memory should mean more page cache")
	}
}

func TestSimEnvBackgroundInterference(t *testing.T) {
	env := NewSimEnv(device.SATAHDD(), device.Profile4C8G(), 1)
	w, _ := env.NewWritableFile("/f", IOBackground)
	w.Append(make([]byte, 8<<20))
	w.Close()
	// Cold read baseline (avoid page cache: use a chunk beyond cached area).
	r, _ := env.NewRandomAccessFile("/f", IOForeground)
	// Evict everything cheaply by reading through an empty cache env: just
	// compare utilization effect directly instead.
	if u := env.Utilization(); u != 0 {
		t.Fatalf("baseline utilization = %v", u)
	}
	end := env.ScheduleBackgroundIO(64<<20, 64<<20, 2<<20, true, false, 0, 0, 1)
	if end <= env.Now() {
		t.Fatal("job completed instantly")
	}
	if u := env.Utilization(); u < 0.4 {
		t.Fatalf("HDD background job utilization = %v, want >= 0.4", u)
	}
	if env.ActiveBackground() != 1 {
		t.Fatalf("active jobs = %d", env.ActiveBackground())
	}
	// After the clock passes the end, utilization decays to zero.
	env.Clock().AdvanceTo(end + time.Second)
	if u := env.Utilization(); u != 0 {
		t.Fatalf("utilization after completion = %v", u)
	}
	_ = r
}

func TestSimEnvWritebackBurstWithoutPeriodicSync(t *testing.T) {
	env := NewSimEnv(device.SATAHDD(), device.Profile4C8G(), 1)
	before := env.Stats().WritebackBursts
	env.ScheduleBackgroundIO(0, 32<<20, 0, false, false, 0, 0, 1)
	if env.Stats().WritebackBursts != before+1 {
		t.Fatal("no writeback burst for unsmoothed background write")
	}
	before = env.Stats().WritebackBursts
	env.ScheduleBackgroundIO(0, 32<<20, 0, true, false, 0, 0, 1)
	if env.Stats().WritebackBursts != before {
		t.Fatal("periodic sync should avoid the burst")
	}
}

func TestSimEnvRateFloor(t *testing.T) {
	env := testSimEnv()
	start := env.Now()
	end := env.ScheduleBackgroundIO(0, 1<<20, 0, true, false, 0, 10*time.Second, 1)
	if end-start < 9*time.Second {
		t.Fatalf("rate floor ignored: job duration %v", end-start)
	}
}

func TestSimEnvForegroundDirtyBurst(t *testing.T) {
	env := NewSimEnv(device.SATAHDD(), device.Profile4C8G(), 1)
	w, _ := env.NewWritableFile("/wal", IOForeground)
	env.TakeOpCost()
	// Push > simDirtyBurst bytes without syncing: at some point one append
	// eats a writeback burst.
	var worst time.Duration
	for i := 0; i < 80; i++ {
		w.Append(make([]byte, 1<<20))
		if c := env.TakeOpCost(); c > worst {
			worst = c
		}
	}
	if env.Stats().WritebackBursts == 0 {
		t.Fatal("no dirty writeback burst")
	}
	if worst < 10*time.Millisecond {
		t.Fatalf("burst too cheap: %v", worst)
	}
}

func TestSimEnvPrunesExpiredSyncIntervals(t *testing.T) {
	env := NewSimEnv(device.SATAHDD(), device.Profile2C4G(), 1)
	f, _ := env.NewWritableFile("/wal", IOForeground)
	w := f.(*simWritableFile)
	rec := make([]byte, 2<<10)
	most := 0
	for i := 0; i < 10000; i++ {
		// The append reads the writeback pressure, which must drop every
		// periodic-sync interval (~93 us each) the clock has passed.
		w.Append(rec)
		env.mu.Lock()
		n := len(env.bg)
		env.mu.Unlock()
		if active := env.ActiveBackground(); n != active {
			t.Fatalf("write %d: %d background intervals kept, %d active", i, n, active)
		}
		if n > most {
			most = n
		}
		w.SyncAsync()
		env.Clock().Advance(20 * time.Microsecond)
		env.TakeOpCost()
	}
	if most < 2 {
		t.Fatalf("at most %d sync intervals overlapped; the schedule must overlap several", most)
	}
}

// naiveBgReference reads every interval ever booked, the way the simulator
// did before expired intervals were dropped.
type naiveBgReference struct{ hist []bgInterval }

func (r *naiveBgReference) utilization(now time.Duration) float64 {
	var maxFrac, sum float64
	n := 0
	for _, iv := range r.hist {
		if iv.start <= now && iv.end > now {
			sum += iv.frac
			if iv.frac > maxFrac {
				maxFrac = iv.frac
			}
			n++
		}
	}
	if n == 0 {
		return 0
	}
	u := maxFrac + (sum-maxFrac)*0.45
	if u > 0.88 {
		u = 0.88
	}
	return u
}

func (r *naiveBgReference) active(now time.Duration) int {
	n := 0
	for _, iv := range r.hist {
		if iv.start <= now && iv.end > now {
			n++
		}
	}
	return n
}

func (r *naiveBgReference) pressure(now time.Duration) float64 {
	var p float64
	for _, iv := range r.hist {
		if iv.start <= now && iv.end > now && iv.frac >= 0.6 && iv.frac > p {
			p = iv.frac
		}
	}
	return p
}

func TestSimEnvPrunedLoadMatchesFullHistory(t *testing.T) {
	const seed = 7
	env := NewSimEnv(device.SATAHDD(), device.Profile2C4G(), seed)
	env.DirtyBurst = 1 << 62 // no watermark bursts: they would book intervals too
	f, _ := env.NewWritableFile("/wal", IOForeground)
	// The reference replays the env's jitter draws from a twin source.
	twin := rand.New(rand.NewSource(seed))
	jitter := func(d time.Duration) time.Duration {
		return time.Duration(float64(d) * (0.92 + 0.16*twin.Float64()))
	}
	ref := &naiveBgReference{}
	rng := rand.New(rand.NewSource(1))
	fracs := []float64{0.08, env.Device.BGInterferencePerJob(), 0.6, 0.75, rng.Float64()}
	rec := make([]byte, 3<<10)
	var idle, partial, saturated, pressured int
	for step := 0; step < 3000; step++ {
		now := env.Now()
		for k := rng.Intn(3); k > 0; k-- {
			iv := bgInterval{start: now, frac: fracs[rng.Intn(len(fracs))]}
			if rng.Intn(4) == 0 {
				// A job-end writeback spike: starts when its job ends.
				iv.start += time.Duration(rng.Int63n(int64(20 * time.Millisecond)))
			}
			iv.end = iv.start + time.Duration(1+rng.Int63n(int64(8*time.Millisecond)))
			env.mu.Lock()
			env.bg = append(env.bg, iv)
			env.mu.Unlock()
			ref.hist = append(ref.hist, iv)
		}
		if rng.Intn(3) > 0 { // else re-read at the same instant
			env.Clock().Advance(time.Duration(rng.Int63n(int64(5 * time.Millisecond))))
		}
		now = env.Now()
		active, u, p := ref.active(now), ref.utilization(now), ref.pressure(now)
		switch {
		case u == 0:
			idle++
		case u < 0.88:
			partial++
		default:
			saturated++
		}
		if p > 0 {
			pressured++
		}
		if got := env.Utilization(); got != u {
			t.Fatalf("step %d: Utilization = %v, full history says %v", step, got, u)
		}
		if got := env.ActiveBackground(); got != active {
			t.Fatalf("step %d: ActiveBackground = %d, full history says %d", step, got, active)
		}
		if got, want := env.Oversubscribed(), env.Profile.CPUFactor(1+active) > 1; got != want {
			t.Fatalf("step %d: Oversubscribed = %v, full history says %v", step, got, want)
		}
		env.TakeOpCost()
		env.ChargeCPU(10 * time.Microsecond)
		want := jitter(time.Duration(float64(10*time.Microsecond) * env.Profile.CPUFactor(1+active)))
		f.Append(rec)
		want += simMemCopyBase + time.Duration(len(rec)>>10)*simMemCopyPerKB
		if p > 0 {
			want += jitter(time.Duration(p * float64(len(rec)) / env.Device.SeqWriteBW * 1e9 * 8))
		}
		if got := env.TakeOpCost(); got != want {
			t.Fatalf("step %d: CPU + append charge = %v, full history says %v", step, got, want)
		}
	}
	if len(ref.hist) < 2000 || idle < 100 || partial < 100 || saturated < 100 || pressured < 100 {
		t.Fatalf("schedule too narrow: %d intervals; %d idle, %d partial, %d saturated, %d pressured steps",
			len(ref.hist), idle, partial, saturated, pressured)
	}
}

// BenchmarkSimFillrandomPeriodicSync times sim writes with periodic WAL and
// SST syncing (the bytes_per_sync / wal_bytes_per_sync of a scale-400 run)
// at two run lengths. Every periodic sync books a background interval, so a
// per-write cost that grows with the run's history shows up as ns/op rising
// with the run length.
func BenchmarkSimFillrandomPeriodicSync(b *testing.B) {
	for _, runLen := range []int{20000, 120000} {
		b.Run(fmt.Sprintf("writes=%dk", runLen/1000), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			key := make([]byte, 16)
			value := make([]byte, 100)
			wo := DefaultWriteOptions()
			var db *DB
			var env *SimEnv
			for i := 0; i < b.N; i++ {
				if i%runLen == 0 {
					b.StopTimer()
					if db != nil {
						db.Close()
					}
					env = NewSimEnv(device.SATAHDD(), device.Profile2C4G(), 1)
					opts := DefaultOptions()
					opts.Env = env
					opts.WriteBufferSize = 256 << 10
					opts.TargetFileSizeBase = 256 << 10
					opts.MaxBytesForLevelBase = 1 << 20
					opts.WALBytesPerSync = (1 << 20) / 400
					opts.BytesPerSync = (1 << 20) / 400
					var err error
					if db, err = Open("/db", opts); err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
				}
				binary.BigEndian.PutUint64(key, rng.Uint64())
				if err := db.Put(wo, key, value); err != nil {
					b.Fatal(err)
				}
				env.Clock().Advance(env.TakeOpCost())
			}
			b.StopTimer()
			db.Close()
		})
	}
}

func TestOSEnvBasics(t *testing.T) {
	env := NewOSEnv()
	dir := t.TempDir()
	if env.IsSim() {
		t.Fatal("OSEnv claims to be sim")
	}
	if err := env.MkdirAll(dir + "/sub"); err != nil {
		t.Fatal(err)
	}
	w, err := env.NewWritableFile(dir+"/sub/f", IOForeground)
	if err != nil {
		t.Fatal(err)
	}
	w.Append([]byte("data"))
	w.Sync()
	w.Close()
	if !env.FileExists(dir + "/sub/f") {
		t.Fatal("file missing")
	}
	names, err := env.List(dir + "/sub")
	if err != nil || len(names) != 1 {
		t.Fatalf("List = %v, %v", names, err)
	}
	r, err := env.NewRandomAccessFile(dir+"/sub/f", IOForeground)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if err := r.ReadAt(buf, 0, HintRandom); err != nil || string(buf) != "data" {
		t.Fatalf("ReadAt = %q, %v", buf, err)
	}
	if n, _ := r.Size(); n != 4 {
		t.Fatalf("Size = %d", n)
	}
	r.Close()
	if env.Now() <= 0 {
		t.Fatal("clock not running")
	}
}
