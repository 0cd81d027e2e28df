// Package metrics provides the small, allocation-light instruments the
// platform and its experiment harness use: atomic counters and gauges,
// log-bucketed latency histograms with quantile estimation, and
// windowed rate meters.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Uint64 }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a settable instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adjusts by delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value reads the gauge.
func (g *Gauge) Value() int64 { return g.v.Load() }

// histBuckets spans 1ns..~17.6min in 60 half-decade-ish buckets: bucket
// i covers [2^i, 2^(i+1)) nanoseconds.
const histBuckets = 60

// Histogram records durations in power-of-two buckets. It is safe for
// concurrent recording; quantiles are estimated at bucket resolution
// (a factor-2 error bound, fine for latency shapes).
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	min     atomic.Uint64
	max     atomic.Uint64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxUint64)
	return h
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := uint64(d.Nanoseconds())
	if d < 0 {
		ns = 0
	}
	h.ObserveValue(ns)
}

// ObserveValue records one dimensionless sample — burst sizes, queue
// depths — into the same power-of-two buckets the duration form uses.
// Readers of a value histogram interpret the nanosecond-named snapshot
// fields as raw sample values.
func (h *Histogram) ObserveValue(ns uint64) {
	idx := 0
	if ns > 0 {
		idx = 63 - bits.LeadingZeros64(ns)
		if idx >= histBuckets {
			idx = histBuckets - 1
		}
	}
	h.buckets[idx].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		old := h.min.Load()
		if ns >= old || h.min.CompareAndSwap(old, ns) {
			break
		}
	}
	for {
		old := h.max.Load()
		if ns <= old || h.max.CompareAndSwap(old, ns) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Mean returns the average observation.
func (h *Histogram) Mean() time.Duration {
	c := h.count.Load()
	if c == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / c)
}

// Min and Max return the observed extremes.
func (h *Histogram) Min() time.Duration {
	if h.count.Load() == 0 {
		return 0
	}
	return time.Duration(h.min.Load())
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile estimates the p-quantile (p in [0,1]) at bucket resolution,
// returning the upper bound of the containing bucket.
func (h *Histogram) Quantile(p float64) time.Duration {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := uint64(math.Ceil(p * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i := 0; i < histBuckets; i++ {
		cum += h.buckets[i].Load()
		if cum >= target {
			return time.Duration(uint64(1) << uint(i+1))
		}
	}
	return h.Max()
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v max=%v",
		h.Count(), h.Mean(), h.Quantile(0.5), h.Quantile(0.95), h.Quantile(0.99), h.Max())
}

// Rate is a windowed event-rate meter.
type Rate struct {
	mu     sync.Mutex
	window time.Duration
	events []time.Time
}

// NewRate meters events over the trailing window.
func NewRate(window time.Duration) *Rate {
	if window <= 0 {
		window = time.Second
	}
	return &Rate{window: window}
}

// Mark records an event at time now.
func (r *Rate) Mark(now time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.events = append(r.events, now)
	r.trim(now)
}

// PerSecond returns the event rate over the trailing window ending now.
func (r *Rate) PerSecond(now time.Time) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.trim(now)
	return float64(len(r.events)) / r.window.Seconds()
}

func (r *Rate) trim(now time.Time) {
	cutoff := now.Add(-r.window)
	i := 0
	for i < len(r.events) && r.events[i].Before(cutoff) {
		i++
	}
	if i > 0 {
		r.events = append(r.events[:0], r.events[i:]...)
	}
}
