package metrics

import (
	"math"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Errorf("counter = %d", c.Value())
	}
	var g Gauge
	g.Set(5)
	g.Add(-2)
	if g.Value() != 3 {
		t.Errorf("gauge = %d", g.Value())
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d", c.Value())
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Min() != 0 {
		t.Error("empty histogram not zeroed")
	}
	for i := 1; i <= 1000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	mean := h.Mean()
	if mean < 400*time.Microsecond || mean > 600*time.Microsecond {
		t.Errorf("mean = %v", mean)
	}
	if h.Min() != time.Microsecond || h.Max() != time.Millisecond {
		t.Errorf("min/max = %v/%v", h.Min(), h.Max())
	}
	// Quantiles are bucket upper bounds: p50 of 1..1000us is ~500us,
	// whose bucket [2^18..2^19)ns has upper bound 2^19ns ~= 524us.
	p50 := h.Quantile(0.5)
	if p50 < 250*time.Microsecond || p50 > time.Millisecond+49*time.Microsecond {
		t.Errorf("p50 = %v", p50)
	}
	if h.Quantile(1) < h.Quantile(0.5) {
		t.Error("quantiles not monotone")
	}
	if h.String() == "" {
		t.Error("String empty")
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	h := NewHistogram()
	durs := []time.Duration{time.Nanosecond, 10 * time.Nanosecond, time.Microsecond,
		50 * time.Microsecond, time.Millisecond, 20 * time.Millisecond, time.Second}
	for _, d := range durs {
		for i := 0; i < 10; i++ {
			h.Observe(d)
		}
	}
	last := time.Duration(0)
	for _, p := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1} {
		q := h.Quantile(p)
		if q < last {
			t.Fatalf("quantile(%v) = %v < previous %v", p, q, last)
		}
		last = q
	}
}

func TestHistogramNegativeAndZero(t *testing.T) {
	h := NewHistogram()
	h.Observe(-time.Second) // clamped, must not panic
	h.Observe(0)
	if h.Count() != 2 {
		t.Errorf("count = %d", h.Count())
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(time.Duration(k*j+1) * time.Nanosecond)
			}
		}(i + 1)
	}
	wg.Wait()
	if h.Count() != 2000 {
		t.Errorf("count = %d", h.Count())
	}
}

func TestRate(t *testing.T) {
	r := NewRate(time.Second)
	base := time.Unix(100, 0)
	for i := 0; i < 10; i++ {
		r.Mark(base.Add(time.Duration(i) * 50 * time.Millisecond))
	}
	if got := r.PerSecond(base.Add(500 * time.Millisecond)); got != 10 {
		t.Errorf("rate = %v, want 10", got)
	}
	// 2 seconds later everything aged out.
	if got := r.PerSecond(base.Add(3 * time.Second)); got != 0 {
		t.Errorf("aged rate = %v", got)
	}
}

// ObserveValue files x > 0 under bucket floor(log2 x), capped at the
// last bucket, and 0 under bucket 0.
func TestHistogramBucketIndex(t *testing.T) {
	cases := []uint64{0, 1, math.MaxUint64}
	for k := 1; k < 64; k++ {
		cases = append(cases, 1<<k-1, 1<<k)
	}
	for _, x := range cases {
		want := 0
		for v := x; v > 1; v >>= 1 {
			want++
		}
		want = min(want, histBuckets-1)
		h := NewHistogram()
		h.ObserveValue(x)
		for i := range h.buckets {
			exp := uint64(0)
			if i == want {
				exp = 1
			}
			if got := h.buckets[i].Load(); got != exp {
				t.Errorf("ObserveValue(%d): bucket %d = %d, want %d", x, i, got, exp)
			}
		}
	}
}
