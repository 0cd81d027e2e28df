package dataplane

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// WorkerPoolConfig tunes a WorkerPool.
type WorkerPoolConfig struct {
	Workers  int          // run-to-completion workers; default 1
	RingSize int          // per-port ring capacity, rounded up to a power of two; default 1024
	Burst    int          // max frames drained per pipeline walk; default 32
	Recycle  func([]byte) // optional: called once per frame after execution, returning the buffer to its pool
}

// IngressRing is a bounded per-port queue of frames awaiting a pipeline
// walk. Producers (netem pumps, packet generators) enqueue; exactly one
// worker drains it, so per-port frame order survives the queue. When
// the ring is full frames are dropped at ingress and counted — tail
// drop, the same contract a NIC RX ring gives the kernel.
type IngressRing struct {
	port  uint32
	w     *worker // assigned at Start; fixed thereafter
	drops atomic.Uint64

	mu         sync.Mutex
	buf        [][]byte
	head, tail uint64 // tail-head = occupancy; indices mod len(buf)
}

// Port returns the port this ring feeds.
func (r *IngressRing) Port() uint32 { return r.port }

// Drops returns the frames tail-dropped because the ring was full.
func (r *IngressRing) Drops() uint64 { return r.drops.Load() }

// Enqueue hands one frame to the ring, taking ownership of data until
// the assigned worker has executed it (and recycled it, if the pool has
// a Recycle hook). Reports false and counts a drop when the ring is
// full. Safe for concurrent producers.
func (r *IngressRing) Enqueue(data []byte) bool {
	r.mu.Lock()
	if r.tail-r.head == uint64(len(r.buf)) {
		r.mu.Unlock()
		r.drops.Add(1)
		return false
	}
	r.buf[r.tail&uint64(len(r.buf)-1)] = data
	r.tail++
	r.mu.Unlock()
	r.w.wake()
	return true
}

// drain pops up to len(dst) frames into dst, returning the count.
// Called only by the assigned worker.
func (r *IngressRing) drain(dst [][]byte) int {
	r.mu.Lock()
	n := int(r.tail - r.head)
	if n == 0 {
		r.mu.Unlock()
		return 0
	}
	if n > len(dst) {
		n = len(dst)
	}
	mask := uint64(len(r.buf) - 1)
	for i := 0; i < n; i++ {
		slot := (r.head + uint64(i)) & mask
		dst[i] = r.buf[slot]
		r.buf[slot] = nil
	}
	r.head += uint64(n)
	r.mu.Unlock()
	return n
}

// workerStats is one worker's counters, padded to a cache line so
// neighbouring workers never false-share. Only the owning worker
// writes; readers merge on demand (Stats, metrics snapshot) — the
// run-to-completion answer to shared striped-counter contention between
// parallel ingress goroutines.
type workerStats struct {
	frames atomic.Uint64
	bursts atomic.Uint64
	_      [48]byte
}

// worker is one run-to-completion loop: it owns a disjoint set of port
// rings and walks each drained burst through the pipeline to completion
// before touching the next ring.
type worker struct {
	id     int
	pool   *WorkerPool
	rings  []*IngressRing
	notify chan struct{}
	parked atomic.Bool // true only while blocked with all owned rings drained
	stats  workerStats
}

// wake nudges the worker if it is parked. The channel holds one token,
// so a wake posted between the worker's last empty scan and its park is
// never lost, and redundant wakes collapse.
func (w *worker) wake() {
	select {
	case w.notify <- struct{}{}:
	default:
	}
}

func (w *worker) run() {
	defer w.pool.wg.Done()
	batch := make([][]byte, w.pool.cfg.Burst)
	for {
		busy := false
		for _, r := range w.rings {
			n := r.drain(batch)
			if n == 0 {
				continue
			}
			busy = true
			w.pool.sw.HandleBurst(r.port, batch[:n])
			if rec := w.pool.cfg.Recycle; rec != nil {
				for i := 0; i < n; i++ {
					rec(batch[i])
					batch[i] = nil
				}
			} else {
				for i := 0; i < n; i++ {
					batch[i] = nil
				}
			}
			w.stats.frames.Add(uint64(n))
			w.stats.bursts.Add(1)
		}
		if busy {
			continue // run to completion: re-scan before parking
		}
		// Parking is announced before blocking: an Enqueue racing with
		// the park has already left a token in notify (wake happens after
		// the ring write), so the select returns immediately.
		w.parked.Store(true)
		select {
		case <-w.notify:
			w.parked.Store(false)
		case <-w.pool.stop:
			return
		}
	}
}

// WorkerStats is the merged view across a pool's workers.
type WorkerStats struct {
	Workers   int      `json:"workers"`
	Frames    uint64   `json:"frames"`
	Bursts    uint64   `json:"bursts"`
	Drops     uint64   `json:"drops"`
	PerWorker []uint64 `json:"per_worker_frames"`
}

// WorkerPool runs the switch's ingress in the run-to-completion model:
// N workers, each owning a disjoint set of per-port rings, each pulling
// bursts and walking them through HandleBurst. Ports are partitioned
// round-robin across workers at Start, so one port is always served by
// one worker and per-port ordering holds end to end.
type WorkerPool struct {
	sw    *Switch
	cfg   WorkerPoolConfig
	rings map[uint32]*IngressRing
	ws    []*worker
	stop  chan struct{}
	wg    sync.WaitGroup

	started atomic.Bool
}

// NewWorkerPool builds a pool feeding sw. Add rings with AddPort, then
// Start. The pool never copies frame bytes: producers hand owned
// buffers to Enqueue, and cfg.Recycle (if set) gets each buffer back
// after its burst executes.
func NewWorkerPool(sw *Switch, cfg WorkerPoolConfig) *WorkerPool {
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.RingSize <= 0 {
		cfg.RingSize = 1024
	}
	rs := 1
	for rs < cfg.RingSize {
		rs <<= 1
	}
	cfg.RingSize = rs
	if cfg.Burst <= 0 {
		cfg.Burst = 32
	}
	return &WorkerPool{
		sw:    sw,
		cfg:   cfg,
		rings: make(map[uint32]*IngressRing),
		stop:  make(chan struct{}),
	}
}

// AddPort creates (or returns) the ingress ring for port. All ports
// must be added before Start; the ring map is read-only afterwards.
func (wp *WorkerPool) AddPort(port uint32) *IngressRing {
	if wp.started.Load() {
		panic("dataplane: WorkerPool.AddPort after Start")
	}
	if r, ok := wp.rings[port]; ok {
		return r
	}
	r := &IngressRing{port: port, buf: make([][]byte, wp.cfg.RingSize)}
	wp.rings[port] = r
	return r
}

// Ring returns the ring for port, or nil.
func (wp *WorkerPool) Ring(port uint32) *IngressRing { return wp.rings[port] }

// Enqueue hands a frame to port's ring. Returns false if the port has
// no ring or the ring is full.
func (wp *WorkerPool) Enqueue(port uint32, data []byte) bool {
	r := wp.rings[port]
	if r == nil {
		return false
	}
	return r.Enqueue(data)
}

// Start partitions the rings across the workers (round-robin by
// ascending port, so the split is deterministic) and launches the
// worker loops.
func (wp *WorkerPool) Start() {
	if !wp.started.CompareAndSwap(false, true) {
		return
	}
	wp.ws = make([]*worker, wp.cfg.Workers)
	for i := range wp.ws {
		wp.ws[i] = &worker{id: i, pool: wp, notify: make(chan struct{}, 1)}
	}
	ports := make([]uint32, 0, len(wp.rings))
	for p := range wp.rings {
		ports = append(ports, p)
	}
	for i := 1; i < len(ports); i++ { // insertion sort; port counts are tiny
		for j := i; j > 0 && ports[j] < ports[j-1]; j-- {
			ports[j], ports[j-1] = ports[j-1], ports[j]
		}
	}
	for i, p := range ports {
		w := wp.ws[i%len(wp.ws)]
		r := wp.rings[p]
		r.w = w
		w.rings = append(w.rings, r)
	}
	wp.wg.Add(len(wp.ws))
	for _, w := range wp.ws {
		go w.run()
	}
}

// Stop halts the workers and waits for them to park. Frames still
// queued in rings are left unexecuted (and reachable via Drain-less
// inspection); call Flush first if they matter.
func (wp *WorkerPool) Stop() {
	if !wp.started.Load() {
		return
	}
	close(wp.stop)
	wp.wg.Wait()
}

// Flush blocks until every ring is empty and every worker has parked —
// i.e. all enqueued frames have finished executing. It assumes
// producers have quiesced (no concurrent Enqueue); with a producer
// still running it may never return. Useful in tests and teardown:
// enqueue, then Flush, then assert on switch state.
func (wp *WorkerPool) Flush() {
	for {
		done := true
		for _, r := range wp.rings {
			r.mu.Lock()
			empty := r.tail == r.head
			r.mu.Unlock()
			if !empty {
				done = false
				break
			}
		}
		if done {
			// A worker parks only after a full scan found nothing, and a
			// drained burst finishes executing before the re-scan, so
			// empty rings + all parked means the datapath is quiet.
			for _, w := range wp.ws {
				if !w.parked.Load() {
					done = false
					break
				}
			}
		}
		if done {
			return
		}
		runtime.Gosched()
	}
}

// Stats merges the per-worker counters. This is the only place the
// per-worker stripes are combined — the hot path never aggregates.
func (wp *WorkerPool) Stats() WorkerStats {
	st := WorkerStats{Workers: len(wp.ws)}
	for _, w := range wp.ws {
		f := w.stats.frames.Load()
		st.Frames += f
		st.Bursts += w.stats.bursts.Load()
		st.PerWorker = append(st.PerWorker, f)
	}
	for _, r := range wp.rings {
		st.Drops += r.drops.Load()
	}
	return st
}

// RegisterMetrics publishes the pool's merged counters under prefix
// (e.g. "dataplane.3.workers"): total frames and bursts executed,
// ingress tail drops, and per-worker frame counts.
func (wp *WorkerPool) RegisterMetrics(r *obs.Registry, prefix string) {
	sc := r.Scope(prefix)
	sc.RegisterFunc("frames", func() int64 { return int64(wp.Stats().Frames) })
	sc.RegisterFunc("bursts", func() int64 { return int64(wp.Stats().Bursts) })
	sc.RegisterFunc("drops", func() int64 { return int64(wp.Stats().Drops) })
	for i := range wp.ws {
		w := wp.ws[i]
		sc.RegisterFunc(fmt.Sprintf("worker.%d.frames", i),
			func() int64 { return int64(w.stats.frames.Load()) })
	}
}
