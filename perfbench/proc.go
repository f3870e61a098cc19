package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// peakRSSMB returns the peak resident set (VmHWM) of a process in MB
// (10^6 bytes); pid 0 means this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, fmt.Errorf("read VmHWM: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", line, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// cpuTicks is the host-wide CPU time from the first line of /proc/stat.
type cpuTicks struct{ steal, total float64 }

// readCPUTicks reads /proc/stat; it returns zeros where that is missing.
func readCPUTicks() cpuTicks {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	var t cpuTicks
	// cpu user nice system idle iowait irq softirq steal ...
	for i := 1; i < len(f) && i <= 8; i++ {
		v, _ := strconv.ParseFloat(f[i], 64)
		t.total += v
		if i == 8 {
			t.steal = v
		}
	}
	return t
}

// stealFrac is the share of CPU time stolen since before.
func (t cpuTicks) stealFrac(before cpuTicks) float64 {
	return ratio(t.steal-before.steal, t.total-before.total)
}

// promSample maps each series of a Prometheus text exposition — name plus
// label set, as printed — to its value.
type promSample map[string]float64

func parseProm(r io.Reader) (promSample, error) {
	out := make(promSample)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta returns after - before for one series.
func (after promSample) delta(before promSample, name string) float64 {
	return after[name] - before[name]
}

var httpClient = &http.Client{Timeout: 10 * time.Second}

// scrape fetches and parses a /metrics endpoint.
func scrape(addr string) (promSample, error) {
	resp, err := httpClient.Get("http://" + addr + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: status %s", resp.Status)
	}
	return parseProm(resp.Body)
}

// watchdog fails the run when the progress counter stops moving, dumping
// every goroutine's stack first, and when the run's deadline passes. A
// stalled load generator would otherwise hang the benchmark; one known
// cause is a client deadlock when hundreds of callers share one
// server.Client, which the benchmark avoids by keeping each client's
// callers at maxCallersPerClient or fewer.
type watchdog struct {
	progress atomic.Int64
	stop     chan struct{}
	done     chan struct{}
	onFail   func() // kills child processes before the exit
}

func startWatchdog(stall, deadline time.Duration, onFail func()) *watchdog {
	w := &watchdog{stop: make(chan struct{}), done: make(chan struct{}), onFail: onFail}
	go w.loop(stall, time.Now().Add(deadline))
	return w
}

// tick marks progress: one operation done, or one step of set-up.
func (w *watchdog) tick() { w.progress.Add(1) }

func (w *watchdog) loop(stall time.Duration, deadline time.Time) {
	defer close(w.done)
	t := time.NewTicker(stall / 4)
	defer t.Stop()
	last, lastMove := w.progress.Load(), time.Now()
	for {
		select {
		case <-w.stop:
			return
		case now := <-t.C:
			if p := w.progress.Load(); p != last {
				last, lastMove = p, now
			}
			switch {
			case now.Sub(lastMove) > stall:
				w.fail(fmt.Sprintf("no progress for %s", now.Sub(lastMove).Round(time.Second)))
			case now.After(deadline):
				w.fail("run deadline passed")
			}
		}
	}
}

func (w *watchdog) fail(why string) {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	fmt.Fprintf(os.Stderr, "perfbench: watchdog: %s; goroutines:\n%s\n", why, buf[:n])
	if w.onFail != nil {
		w.onFail()
	}
	os.Exit(3)
}

// close stops the watchdog and waits for it to exit.
func (w *watchdog) close() {
	close(w.stop)
	<-w.done
}

// fingerprint identifies the host, toolchain, source and inputs a result
// came from.
type fingerprint struct {
	NProc        int               `json:"nproc"`
	GOMAXPROCS   int               `json:"gomaxprocs"`
	CPUModel     string            `json:"cpu_model"`
	GoVersion    string            `json:"go_version"`
	SourceSHA256 string            `json:"source_sha256"`
	Seed         int64             `json:"seed"`
	OptionsHash  map[string]string `json:"options_sha256"`
	Dataset      string            `json:"dataset"`
	FlushPolicy  string            `json:"flush_policy"`
}

func newFingerprint(root string, seed int64) fingerprint {
	return fingerprint{
		NProc:        runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		CPUModel:     cpuModel(),
		GoVersion:    runtime.Version(),
		SourceSHA256: sourceDigest(root),
		Seed:         seed,
		OptionsHash:  map[string]string{},
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest stands in for a commit id (the checkout need not be a git
// repository): a SHA-256 over the path and contents of every Go source and
// module file under root, in walk order, skipping dot-directories.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", rel, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// lineLog forwards a child's stderr to ours and remembers every line so
// the caller can wait for one.
type lineLog struct {
	prefix string
	mu     sync.Mutex
	cond   *sync.Cond
	lines  []string
	eof    bool
}

func newLineLog(prefix string) *lineLog {
	l := &lineLog{prefix: prefix}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// consume reads r to EOF.
func (l *lineLog) consume(r io.Reader) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintf(os.Stderr, "%s%s\n", l.prefix, line)
		l.mu.Lock()
		l.lines = append(l.lines, line)
		l.cond.Broadcast()
		l.mu.Unlock()
	}
	l.mu.Lock()
	l.eof = true
	l.cond.Broadcast()
	l.mu.Unlock()
}

// waitFor blocks until a line containing substr arrives and returns it, or
// returns "" once the stream ends without one.
func (l *lineLog) waitFor(substr string) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	seen := 0
	for {
		for ; seen < len(l.lines); seen++ {
			if strings.Contains(l.lines[seen], substr) {
				return l.lines[seen]
			}
		}
		if l.eof {
			return ""
		}
		l.cond.Wait()
	}
}

// contains reports whether any line so far contains substr.
func (l *lineLog) contains(substr string) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if strings.Contains(line, substr) {
			return true
		}
	}
	return false
}

// dirBytes sums the sizes of the regular files under dir whose names end
// in one of the suffixes.
func dirBytes(dir string, suffixes ...string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		for _, s := range suffixes {
			if strings.HasSuffix(d.Name(), s) {
				info, err := d.Info()
				if err != nil {
					return err
				}
				total += info.Size()
				break
			}
		}
		return nil
	})
	return total, err
}

// iniBytes renders any value with a WriteTo method (an ini.File) to bytes.
func iniBytes(w io.WriterTo) []byte {
	var b bytes.Buffer
	w.WriteTo(&b)
	return b.Bytes()
}
