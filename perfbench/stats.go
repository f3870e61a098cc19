package main

import (
	"math"
	"sort"
	"sync/atomic"
	"time"
)

// samples collects per-operation latencies. One goroutine owns each
// samples value while measuring; merge combines them afterwards.
type samples struct {
	ns []int64
}

func (s *samples) add(d time.Duration) { s.ns = append(s.ns, int64(d)) }

func (s *samples) merge(o *samples) { s.ns = append(s.ns, o.ns...) }

func (s *samples) len() int { return len(s.ns) }

// pct is one percentile with the sample count it rests on. Beyond is how
// many samples lie above the percentile: a percentile is only trusted when
// at least ten do.
type pct struct {
	P      float64 `json:"p"`
	US     float64 `json:"us"`
	N      int     `json:"n"`
	Beyond int     `json:"beyond"`
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) in
// microseconds. It sorts the samples in place.
func (s *samples) percentile(p float64) pct {
	n := len(s.ns)
	out := pct{P: p, N: n}
	if n == 0 {
		return out
	}
	if !sort.SliceIsSorted(s.ns, func(i, j int) bool { return s.ns[i] < s.ns[j] }) {
		sort.Slice(s.ns, func(i, j int) bool { return s.ns[i] < s.ns[j] })
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	out.US = float64(s.ns[rank-1]) / 1e3
	out.Beyond = n - rank
	return out
}

// meanUS returns the mean latency in microseconds.
func (s *samples) meanUS() float64 {
	if len(s.ns) == 0 {
		return 0
	}
	var sum int64
	for _, v := range s.ns {
		sum += v
	}
	return float64(sum) / float64(len(s.ns)) / 1e3
}

// tally books operations: every attempt, every failure (any error other
// than the expected not-found), and every wrong result. Safe for
// concurrent use.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	wrong     atomic.Int64
}

// bad is the number of operations that count against error_rate.
func (t *tally) bad() int64 { return t.failed.Load() + t.wrong.Load() }

// errorRate is (failed + wrong) / attempted.
func (t *tally) errorRate() float64 {
	return ratio(float64(t.bad()), float64(t.attempted.Load()))
}

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// hitRatio is hits / (hits + misses).
func hitRatio(hits, misses float64) float64 { return ratio(hits, hits+misses) }

// writeAmp is the bytes the engine wrote to storage — WAL, flush output and
// compaction output — per user byte put.
func writeAmp(walBytes, flushBytes, compactWriteBytes, userBytes float64) float64 {
	return ratio(walBytes+flushBytes+compactWriteBytes, userBytes)
}

// spaceAmp is the bytes on disk — table files plus live WAL — per live user
// byte (key plus value of each key's latest version).
func spaceAmp(sstBytes, walBytes, liveUserBytes float64) float64 {
	return ratio(sstBytes+walBytes, liveUserBytes)
}
