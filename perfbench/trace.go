package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// public function it calls. Spans of one request share Req; Parent is the
// ID of the span that caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. Each recording
// goroutine owns one spanBuf, so recording takes no lock; a nil *tracer
// records nothing.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	bufs  []*spanBuf
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// spanBuf is one goroutine's span store. IDs are unique across buffers:
// the buffer's index in the high bits, a local counter in the low ones.
type spanBuf struct {
	t     *tracer
	base  uint64
	spans []span
}

// buf returns a new buffer for one goroutine (nil when tracing is off).
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &spanBuf{t: t, base: uint64(len(t.bufs)+1) << 40}
	t.bufs = append(t.bufs, b)
	return b
}

// record stores a finished span and returns its ID (0 when b is nil).
func (b *spanBuf) record(name string, req, parent uint64, start, end time.Time) uint64 {
	if b == nil {
		return 0
	}
	id := b.base + uint64(len(b.spans)) + 1
	b.spans = append(b.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(b.t.epoch)), End: int64(end.Sub(b.t.epoch)),
	})
	return id
}

// begin opens a span whose children are recorded before it ends, and
// returns its ID for them (0 when b is nil).
func (b *spanBuf) begin(name string, req, parent uint64) uint64 {
	now := time.Now()
	return b.record(name, req, parent, now, now)
}

// end closes a span opened by begin.
func (b *spanBuf) end(id uint64) {
	if b == nil || id == 0 {
		return
	}
	b.spans[id-b.base-1].End = int64(time.Since(b.t.epoch))
}

// all returns every span recorded, once recording goroutines have stopped.
func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, b := range t.bufs {
		out = append(out, b.spans...)
	}
	return out
}

// layerTime is the total and self time of every span of one name.
type layerTime struct {
	Count   int64 `json:"count"`
	TotalNS int64 `json:"total_ns"`
	SelfNS  int64 `json:"self_ns"`
}

// selfTimes sums, per span name, the spans' durations and their self time:
// the duration minus the part of the span's interval its children cover.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		lt.Count++
		lt.TotalNS += s.End - s.Start
		lt.SelfNS += s.End - s.Start - covered(s, children[s.ID])
		out[s.Name] = lt
	}
	return out
}

// covered is the length of the union of the kids' intervals clipped to
// the parent's.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	return total + curHi - curLo
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
