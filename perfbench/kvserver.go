package main

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"
)

// children tracks the kvserver processes this run started, so a failing
// watchdog can kill them before the benchmark exits.
var children struct {
	mu    sync.Mutex
	procs map[*kvProc]struct{}
}

func killChildren() {
	children.mu.Lock()
	defer children.mu.Unlock()
	for p := range children.procs {
		p.cmd.Process.Kill()
	}
}

// kvProc is one cmd/kvserver child process.
type kvProc struct {
	cmd         *exec.Cmd
	log         *lineLog
	addr        string // request listener
	metricsAddr string // Prometheus /metrics
	exited      chan struct{}
	waitErr     error
}

// startKV starts kvserver on dir with the OPTIONS file at optsPath,
// listening on ephemeral loopback ports, and waits until it serves.
func startKV(bin, dir, optsPath string, shards int) (*kvProc, error) {
	ready := filepath.Join(dir, "ready.addr")
	os.Remove(ready)
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-db", dir,
		"-shards", fmt.Sprint(shards),
		"-options", optsPath,
		"-metrics_addr", "127.0.0.1:0",
		"-ready_file", ready)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, fmt.Errorf("kvserver: %w", err)
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("kvserver: start: %w", err)
	}
	p := &kvProc{cmd: cmd, log: newLineLog("kvserver| "), exited: make(chan struct{})}
	children.mu.Lock()
	if children.procs == nil {
		children.procs = make(map[*kvProc]struct{})
	}
	children.procs[p] = struct{}{}
	children.mu.Unlock()
	logDone := make(chan struct{})
	go func() {
		p.log.consume(stderr)
		close(logDone)
	}()
	go func() {
		<-logDone // Wait must not run before the pipe is drained
		p.waitErr = cmd.Wait()
		children.mu.Lock()
		delete(children.procs, p)
		children.mu.Unlock()
		close(p.exited)
	}()

	// The metrics address is only printed; the request address is also
	// written to the ready file, which appears last.
	line := p.log.waitFor("serving Prometheus metrics on http://")
	if line == "" {
		p.kill()
		return nil, fmt.Errorf("kvserver exited before serving: %v", p.waitErr)
	}
	p.metricsAddr = strings.TrimSuffix(line[strings.Index(line, "http://")+len("http://"):], "/metrics")
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if b, err := os.ReadFile(ready); err == nil && len(b) > 0 {
			p.addr = string(b)
			return p, nil
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, errors.New("kvserver: no ready file after 20s")
		}
	}
}

// pid is the child's process id.
func (p *kvProc) pid() int { return p.cmd.Process.Pid }

// interrupt sends SIGINT and waits for exit, requiring the server's clean
// shutdown: exit status 0 after "clean shutdown" on its stderr.
func (p *kvProc) interrupt() error {
	if err := p.cmd.Process.Signal(syscall.SIGINT); err != nil {
		return fmt.Errorf("kvserver: SIGINT: %w", err)
	}
	select {
	case <-p.exited:
	case <-time.After(30 * time.Second):
		p.kill()
		return errors.New("kvserver: no exit within 30s of SIGINT")
	}
	if p.waitErr != nil {
		return fmt.Errorf("kvserver: exit after SIGINT: %w", p.waitErr)
	}
	if !p.log.contains("clean shutdown") {
		return errors.New("kvserver: exited without a clean shutdown")
	}
	return nil
}

// kill stops the child at once and waits for it.
func (p *kvProc) kill() {
	p.cmd.Process.Kill()
	<-p.exited
}
