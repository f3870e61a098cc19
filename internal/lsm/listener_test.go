package lsm

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// readEnvFile reads a whole file from an Env (used to inspect the LOG).
func readEnvFile(t *testing.T, env Env, name string) string {
	t.Helper()
	size, err := env.FileSize(name)
	if err != nil {
		t.Fatalf("FileSize(%s): %v", name, err)
	}
	f, err := env.NewRandomAccessFile(name, IOBackground)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	defer f.Close()
	buf := make([]byte, size)
	if size > 0 {
		if err := f.ReadAt(buf, 0, HintSequential); err != nil {
			t.Fatalf("read %s: %v", name, err)
		}
	}
	return string(buf)
}

func TestEventListenerCallbacks(t *testing.T) {
	var mu sync.Mutex
	var flushes []FlushInfo
	var compactions []CompactionInfo
	var stalls []StallInfo
	var walSyncs int
	listener := &ListenerFuncs{
		FlushCompleted: func(i FlushInfo) {
			mu.Lock()
			flushes = append(flushes, i)
			mu.Unlock()
		},
		CompactionCompleted: func(i CompactionInfo) {
			mu.Lock()
			compactions = append(compactions, i)
			mu.Unlock()
		},
		StallConditionChanged: func(i StallInfo) {
			mu.Lock()
			stalls = append(stalls, i)
			mu.Unlock()
		},
		WALSync: func(WALSyncInfo) {
			mu.Lock()
			walSyncs++
			mu.Unlock()
		},
	}
	db, _ := openTestDB(t, func(o *Options) {
		o.Listeners = append(o.Listeners, listener)
	})
	defer db.Close()

	wo := DefaultWriteOptions()
	wo.Sync = true
	for i := 0; i < 3000; i++ {
		if err := db.Put(wo, []byte(fmt.Sprintf("k%05d", i)), make([]byte, 128)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := db.WaitForBackgroundIdle(); err != nil {
		t.Fatal(err)
	}
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(flushes) == 0 {
		t.Fatal("no flush events")
	}
	for _, f := range flushes {
		if f.Err != nil {
			t.Fatalf("flush error event: %v", f.Err)
		}
		if f.MemtablesMerged < 1 {
			t.Fatalf("flush merged %d memtables", f.MemtablesMerged)
		}
	}
	if flushes[0].Bytes <= 0 || flushes[0].OutputFileNumber == 0 {
		t.Fatalf("flush info incomplete: %+v", flushes[0])
	}
	if len(compactions) == 0 {
		t.Fatal("no compaction events (CompactRange must emit one)")
	}
	sawManual := false
	for _, c := range compactions {
		if c.Reason == "manual" {
			sawManual = true
		}
		if c.Reason == "" || c.OutputLevel < c.InputLevel {
			t.Fatalf("compaction info incomplete: %+v", c)
		}
	}
	if !sawManual {
		t.Fatalf("no manual-compaction event among %d events", len(compactions))
	}
	if walSyncs == 0 {
		t.Fatal("no WAL sync events despite Sync writes")
	}
	// Stall transitions come in pairs when they happen (normal->delayed,
	// delayed->normal, ...); with the small test buffers they may or may not
	// trigger, but any emitted transition must be a real change.
	for _, s := range stalls {
		if s.Previous == s.Current {
			t.Fatalf("no-op stall transition: %+v", s)
		}
	}
}

func TestStallListenerFiresUnderPressure(t *testing.T) {
	var mu sync.Mutex
	var stalls []StallInfo
	db, _ := openTestDB(t, func(o *Options) {
		o.Level0FileNumCompactionTrigger = 2
		o.Level0SlowdownWritesTrigger = 2
		o.Level0StopWritesTrigger = 4
		o.Listeners = append(o.Listeners, &ListenerFuncs{
			StallConditionChanged: func(i StallInfo) {
				mu.Lock()
				stalls = append(stalls, i)
				mu.Unlock()
			},
		})
	})
	defer db.Close()
	wo := DefaultWriteOptions()
	for i := 0; i < 20000; i++ {
		if err := db.Put(wo, []byte(fmt.Sprintf("k%06d", i)), make([]byte, 256)); err != nil {
			t.Fatal(err)
		}
	}
	db.WaitForBackgroundIdle()
	mu.Lock()
	defer mu.Unlock()
	if len(stalls) == 0 {
		t.Fatal("no stall transitions with trigger=2 under 20k writes")
	}
	if stalls[0].Previous != StallNormal {
		t.Fatalf("first transition from %v, want normal", stalls[0].Previous)
	}
	for i := 1; i < len(stalls); i++ {
		if stalls[i].Previous != stalls[i-1].Current {
			t.Fatalf("transition %d %v->%v does not follow %v->%v",
				i, stalls[i].Previous, stalls[i].Current, stalls[i-1].Previous, stalls[i-1].Current)
		}
	}
	// Consecutive delayed writes stay in the delayed condition: transitions
	// mark real changes, not one delayed/normal pair per slowdown write.
	slowdowns := db.stats.Get(TickerSlowdownWrites)
	if slowdowns == 0 {
		t.Fatal("no slowdown writes with trigger=2 under 20k writes")
	}
	if int64(len(stalls))*10 > slowdowns {
		t.Fatalf("%d stall transitions for %d slowdown writes: condition flip-flops per write",
			len(stalls), slowdowns)
	}
}

func TestInfoLogWritten(t *testing.T) {
	db, env := openTestDB(t, nil)
	wo := DefaultWriteOptions()
	for i := 0; i < 2000; i++ {
		db.Put(wo, []byte(fmt.Sprintf("k%05d", i)), make([]byte, 128))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	db.WaitForBackgroundIdle()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	name := InfoLogFileName("/db")
	if !env.FileExists(name) {
		t.Fatal("LOG file not created")
	}
	content := readEnvFile(t, env, name)
	for _, want := range []string{
		"[db] open /db",
		"[flush] memtables=",
		"[db] close /db",
		"** Compaction Stats [default] **",
		"rocksdb.db.write.micros",
	} {
		if !strings.Contains(content, want) {
			t.Errorf("LOG missing %q:\n%s", want, content)
		}
	}
}

func TestInfoLogSurvivesObsoleteFileDeletion(t *testing.T) {
	// The LOG must never be garbage-collected with obsolete SSTs/WALs.
	db, env := openTestDB(t, nil)
	defer db.Close()
	wo := DefaultWriteOptions()
	for i := 0; i < 5000; i++ {
		db.Put(wo, []byte(fmt.Sprintf("k%05d", i)), make([]byte, 128))
	}
	db.Flush()
	db.WaitForBackgroundIdle()
	if err := db.CompactRange(nil, nil); err != nil {
		t.Fatal(err)
	}
	if !env.FileExists(InfoLogFileName("/db")) {
		t.Fatal("LOG deleted by obsolete-file collection")
	}
}

func TestDisableInfoLog(t *testing.T) {
	db, env := openTestDB(t, func(o *Options) { o.DisableInfoLog = true })
	defer db.Close()
	if env.FileExists(InfoLogFileName("/db")) {
		t.Fatal("LOG created despite DisableInfoLog")
	}
}

func TestStallConditionString(t *testing.T) {
	cases := map[StallCondition]string{
		StallNormal:        "normal",
		StallDelayed:       "delayed",
		StallStopped:       "stopped",
		StallCondition(99): "StallCondition(99)",
	}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(c), c.String(), want)
		}
	}
}
