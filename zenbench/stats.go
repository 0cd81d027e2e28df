package main

import (
	"math"
	"slices"
	"time"
)

// sliceDur splits a timed window into slices. Rates and percentiles
// are taken per slice and reported as the median over the window's
// full slices, so a stall the host imposes on part of a run does not
// move the run's figure.
const sliceDur = 250 * time.Millisecond

// maxSlices bounds the slices of one window (60 s).
const maxSlices = 240

// minP99Samples is the fewest samples a p99 is taken from: ten samples
// lie beyond it.
const minP99Samples = 1000

// samples holds raw latencies in nanoseconds. The buffer is allocated
// with the inputs, before the heap baseline, so recording in the timed
// window allocates nothing; it is sized well past a window's samples,
// and any past capacity are not kept. marks[i] is the index of the
// first sample of slice i.
type samples struct {
	v     []uint32
	t0    time.Time
	marks []int
}

func newSamples(n int) *samples {
	return &samples{v: make([]uint32, 0, n), marks: make([]int, 0, maxSlices+1)}
}

// start empties s for a window beginning at t0.
func (s *samples) start(t0 time.Time) {
	s.v, s.marks, s.t0 = s.v[:0], s.marks[:0], t0
}

// add records d, observed at now, in its slice.
func (s *samples) add(now time.Time, d time.Duration) {
	for i := int(now.Sub(s.t0) / sliceDur); len(s.marks) <= i && len(s.marks) < cap(s.marks); {
		s.marks = append(s.marks, len(s.v))
	}
	s.push(d)
}

// push records d for whole-window quantiles only.
func (s *samples) push(d time.Duration) {
	if len(s.v) == cap(s.v) {
		return
	}
	if d < 0 {
		d = 0
	}
	if d > math.MaxUint32 {
		d = math.MaxUint32
	}
	s.v = append(s.v, uint32(d))
}

// slice returns the samples of slice i.
func (s *samples) slice(i int) []uint32 {
	if i >= len(s.marks) {
		return nil
	}
	end := len(s.v)
	if i+1 < len(s.marks) {
		end = s.marks[i+1]
	}
	return s.v[s.marks[i]:end]
}

// quantileOf returns the nearest-rank q-quantile of v in microseconds,
// sorting v in place.
func quantileOf(v []uint32, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	i := int(math.Ceil(q*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(v[i]) / 1e3
}

// quantile is the q-quantile over every sample, in microseconds.
func (s *samples) quantile(q float64) float64 { return quantileOf(s.v, q) }

// slicedQuantiles merges the samples of parts slice by slice over the
// first n slices and returns the q-quantile of every slice holding at
// least min samples, with the number of samples behind them.
func slicedQuantiles(q float64, n, min int, parts ...*samples) ([]float64, int) {
	var per []float64
	var buf []uint32
	total := 0
	for i := 0; i < n; i++ {
		buf = buf[:0]
		for _, p := range parts {
			buf = append(buf, p.slice(i)...)
		}
		if len(buf) >= min {
			per = append(per, quantileOf(buf, q))
			total += len(buf)
		}
	}
	return per, total
}

// rates counts events per slice of a window.
type rates struct {
	t0 time.Time
	n  [maxSlices]uint64
}

func (c *rates) start(t0 time.Time) { *c = rates{t0: t0} }

func (c *rates) add(now time.Time, k uint64) {
	if i := int(now.Sub(c.t0) / sliceDur); i >= 0 && i < maxSlices {
		c.n[i] += k
	}
}

// sliceRates is the events per second of each of the first n slices,
// summed across parts.
func sliceRates(n int, parts ...*rates) []float64 {
	per := make([]float64, 0, n)
	for i := 0; i < n && i < maxSlices; i++ {
		var k uint64
		for _, p := range parts {
			k += p.n[i]
		}
		per = append(per, float64(k)/sliceDur.Seconds())
	}
	return per
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	slices.Sort(c)
	if len(c)%2 == 1 {
		return c[len(c)/2]
	}
	return (c[len(c)/2-1] + c[len(c)/2]) / 2
}

// nsPer times fn, which does ops operations per call, until at least
// minDur has passed, and returns nanoseconds per operation.
func nsPer(minDur time.Duration, ops int, fn func()) float64 {
	fn() // warm
	n := 0
	t0 := time.Now()
	for {
		fn()
		n++
		if el := time.Since(t0); el >= minDur {
			return float64(el.Nanoseconds()) / float64(n*ops)
		}
	}
}
