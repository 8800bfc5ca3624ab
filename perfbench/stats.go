package main

import (
	"math"
	"sort"
	"sync"
	"time"
)

// failedLatency is the latency recorded for an operation that failed, was
// shed or timed out: it counts as a miss of every latency limit and can
// never enter a percentile as a fast sample.
const failedLatency = 60 * time.Second

// sample is one timed operation: when it completed and how long it took.
type sample struct {
	at time.Time
	ms float64
}

// recorder collects per-operation latencies and the attempted/failed counts
// of one run. It is safe for concurrent use.
type recorder struct {
	mu        sync.Mutex
	lat       map[string][]sample
	attempted map[string]int
	failed    map[string]int
}

func newRecorder() *recorder {
	return &recorder{lat: map[string][]sample{}, attempted: map[string]int{}, failed: map[string]int{}}
}

// add records one operation that took d; a failed operation is recorded
// at failedLatency instead.
func (r *recorder) add(op string, d time.Duration, failed bool) {
	if failed {
		d = failedLatency
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.lat[op] = append(r.lat[op], sample{at: time.Now(), ms: float64(d) / float64(time.Millisecond)})
	r.attempted[op]++
	if failed {
		r.failed[op]++
	}
}

// count adds other's attempted and failed counts to r under op, without
// its latencies.
func (r *recorder) count(op string, other *recorder) {
	attempted, failed := other.totals()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted[op] += attempted
	r.failed[op] += failed
}

// samples returns the latencies (ms) of the named operations, pooled, in
// completion order per operation.
func (r *recorder) samples(ops ...string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, op := range ops {
		for _, s := range r.lat[op] {
			out = append(out, s.ms)
		}
	}
	return out
}

// segment is a span of the load phase that figures are computed over:
// one episode of a committing closed loop, or one equal slice of a run.
// Reporting the median over segments keeps one slow stretch from moving a
// whole run's figure.
type segment struct{ from, to time.Time }

// equalSegments splits [from, to) into n segments of equal length.
func equalSegments(from, to time.Time, n int) []segment {
	segs := make([]segment, n)
	step := to.Sub(from) / time.Duration(n)
	for i := range segs {
		segs[i] = segment{from.Add(time.Duration(i) * step), from.Add(time.Duration(i+1) * step)}
	}
	return segs
}

// in returns the latencies (ms) of the named operations completed within s.
func (r *recorder) in(s segment, ops ...string) []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for _, op := range ops {
		for _, x := range r.lat[op] {
			if !x.at.Before(s.from) && x.at.Before(s.to) {
				out = append(out, x.ms)
			}
		}
	}
	return out
}

// overSegments returns the median over segs of f, skipping segments where
// f is NaN.
func overSegments(segs []segment, f func(segment) float64) float64 {
	var per []float64
	for _, s := range segs {
		if v := f(s); !math.IsNaN(v) {
			per = append(per, v)
		}
	}
	return median(per)
}

// quantileIn returns the q-quantile of the named operations within each
// segment, or NaN for a segment without samples.
func (r *recorder) quantileIn(q float64, ops ...string) func(segment) float64 {
	return func(s segment) float64 { return quantile(r.in(s, ops...), q) }
}

// rateIn returns the named operations completed per second within each
// segment.
func (r *recorder) rateIn(ops ...string) func(segment) float64 {
	return func(s segment) float64 {
		return float64(len(r.in(s, ops...))) / s.to.Sub(s.from).Seconds()
	}
}

// totals returns the attempted and failed counts over every operation.
func (r *recorder) totals() (attempted, failed int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for op, n := range r.attempted {
		attempted += n
		failed += r.failed[op]
	}
	return attempted, failed
}

// quantile returns the nearest-rank q-quantile of xs (which it sorts), or
// NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
