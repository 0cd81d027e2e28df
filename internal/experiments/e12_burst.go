package experiments

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataplane"
	"repro/internal/packet"
	"repro/internal/zof"
)

// E12Config parameterizes the burst-mode datapath scaling experiment.
type E12Config struct {
	Workers []int         // worker counts to sweep (default 1,2,4)
	Procs   []int         // GOMAXPROCS values to sweep (default 1 and NumCPU when >1)
	Burst   int           // frames per burst (default 32)
	Measure time.Duration // wall time per point (default 500ms)
}

// E12Point is one measured (mode, GOMAXPROCS, workers) cell.
type E12Point struct {
	Mode         string  `json:"mode"` // "frame", "burst" or "ring"
	GOMAXPROCS   int     `json:"gomaxprocs"`
	Workers      int     `json:"workers"`
	Burst        int     `json:"burst"`
	FramesPerSec float64 `json:"frames_per_sec"`
	SpeedupVs1   float64 `json:"speedup_vs_1"` // vs workers=1, same mode and GOMAXPROCS
}

// E12Result is the machine-readable output (BENCH_e12.json). GOMAXPROCS
// is swept explicitly and recorded per point, and Warning is set
// whenever the host cannot actually run the requested parallelism, so a
// single-core runner never silently reports meaningless worker scaling.
type E12Result struct {
	NumCPU    int        `json:"num_cpu"`
	MeasureMS int64      `json:"measure_ms"`
	Warning   string     `json:"warning,omitempty"`
	Points    []E12Point `json:"points"`
}

// E12BurstScaling compares the three ingress disciplines end to end:
// per-frame HandleFrame calls ("frame"), direct batched pipeline walks
// ("burst"), and the full run-to-completion path through per-port
// ingress rings and a WorkerPool ("ring"). Each is swept over worker
// count and GOMAXPROCS; speedups are computed within a (mode, procs)
// column so batching gains and core scaling are never conflated.
func E12BurstScaling(cfg E12Config) (*Table, *E12Result, error) {
	if len(cfg.Workers) == 0 {
		cfg.Workers = []int{1, 2, 4}
	}
	if len(cfg.Procs) == 0 {
		cfg.Procs = []int{1}
		if n := runtime.NumCPU(); n > 1 {
			cfg.Procs = append(cfg.Procs, n)
		}
	}
	if cfg.Burst <= 0 {
		cfg.Burst = 32
	}
	if cfg.Measure <= 0 {
		cfg.Measure = 500 * time.Millisecond
	}
	maxW := 0
	for _, w := range cfg.Workers {
		if w > maxW {
			maxW = w
		}
	}

	res := &E12Result{NumCPU: runtime.NumCPU(), MeasureMS: cfg.Measure.Milliseconds()}
	if res.NumCPU < maxW {
		res.Warning = fmt.Sprintf(
			"num_cpu=%d < max workers=%d: multi-worker points timeshare cores; speedup_vs_1 reflects scheduling, not scaling",
			res.NumCPU, maxW)
	}
	tbl := &Table{
		ID:     "E12",
		Title:  "burst-mode datapath scaling (frame vs burst vs ring ingress)",
		Header: []string{"mode", "procs", "workers", "burst", "frames/s", "speedup"},
		Notes: []string{fmt.Sprintf("NumCPU=%d; burst=%d frames; speedup within (mode, procs) column",
			res.NumCPU, cfg.Burst)},
	}
	if res.Warning != "" {
		tbl.Notes = append(tbl.Notes, "WARNING: "+res.Warning)
	}

	orig := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(orig)
	for _, procs := range cfg.Procs {
		runtime.GOMAXPROCS(procs)
		for _, mode := range []string{"frame", "burst", "ring"} {
			base := 0.0
			for _, nw := range cfg.Workers {
				if nw < 1 {
					continue
				}
				fps, err := e12Point(mode, nw, cfg.Burst, cfg.Measure)
				if err != nil {
					return nil, nil, err
				}
				if base == 0 {
					base = fps
				}
				pt := E12Point{Mode: mode, GOMAXPROCS: procs, Workers: nw, Burst: cfg.Burst,
					FramesPerSec: fps, SpeedupVs1: fps / base}
				res.Points = append(res.Points, pt)
				tbl.AddRow(mode, fmt.Sprintf("%d", procs), fmt.Sprintf("%d", nw),
					fmt.Sprintf("%d", cfg.Burst), f0(fps), f2(pt.SpeedupVs1)+"x")
			}
		}
	}
	return tbl, res, nil
}

// laneSwitch builds a switch with n disjoint forwarding lanes: lane i
// receives its own microflow on ingress port i+1 and a dedicated flow
// entry outputs it to egress port 1001+i (tx is a no-op sink). Disjoint
// lanes mean the measurement exposes pipeline serialization, not
// artificial contention on one entry's counters.
func laneSwitch(n int) (*dataplane.Switch, [][]byte, error) {
	sw := dataplane.NewSwitch(dataplane.Config{DPID: 1, DropOnMiss: true})
	frames := make([][]byte, n)
	for w := 0; w < n; w++ {
		in, out := uint32(w+1), uint32(1001+w)
		sw.AddPort(in, fmt.Sprintf("in%d", w), 1000)
		sw.AddPort(out, fmt.Sprintf("out%d", w), 1000).SetTx(func([]byte) {})
		m := zof.MatchAll()
		m.Wildcards &^= zof.WInPort
		m.InPort = in
		var repErr error
		sw.Process(&zof.FlowMod{Command: zof.FlowAdd, Match: m, Priority: 10,
			BufferID: zof.NoBuffer, Actions: []zof.Action{zof.Output(out)}}, 1,
			func(rep zof.Message, _ uint32) {
				if e, ok := rep.(*zof.Error); ok {
					repErr = fmt.Errorf("flow add: %s", e.Detail)
				}
			})
		if repErr != nil {
			return nil, nil, repErr
		}
		buf := packet.NewBuffer(64)
		buf.Append(22)
		src := packet.IPv4Addr{10, 1, byte(w >> 8), byte(w)}
		dst := packet.IPv4Addr{10, 2, byte(w >> 8), byte(w)}
		udp := packet.UDP{SrcPort: uint16(4000 + w), DstPort: 53}
		udp.SerializeToWithChecksum(buf, src, dst)
		ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: src, Dst: dst}
		ip.SerializeTo(buf)
		eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
		eth.SerializeTo(buf)
		frames[w] = append([]byte(nil), buf.Bytes()...)
		sw.HandleFrame(in, frames[w]) // warm the microflow cache
	}
	return sw, frames, nil
}

// e12Point measures one cell: nw ingress lanes (one flow, one ingress
// and one sink port per lane) driven in the given mode for the
// measurement window, returning aggregate frames/s.
func e12Point(mode string, nw, burstN int, measure time.Duration) (float64, error) {
	sw, frames, err := laneSwitch(nw)
	if err != nil {
		return 0, err
	}
	switch mode {
	case "frame", "burst":
		var stop atomic.Bool
		counts := make([]uint64, nw)
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				in, fr := uint32(w+1), frames[w]
				var n uint64
				if mode == "frame" {
					for !stop.Load() {
						sw.HandleFrame(in, fr)
						n++
					}
				} else {
					batch := make([][]byte, burstN)
					for i := range batch {
						batch[i] = fr
					}
					for !stop.Load() {
						sw.HandleBurst(in, batch)
						n += uint64(burstN)
					}
				}
				counts[w] = n
			}(w)
		}
		time.Sleep(measure)
		stop.Store(true)
		wg.Wait()
		elapsed := time.Since(start).Seconds()
		var total uint64
		for _, n := range counts {
			total += n
		}
		return float64(total) / elapsed, nil
	case "ring":
		wp := dataplane.NewWorkerPool(sw, dataplane.WorkerPoolConfig{
			Workers: nw, RingSize: 1024, Burst: burstN})
		for w := 0; w < nw; w++ {
			wp.AddPort(uint32(w + 1))
		}
		wp.Start()
		var stop atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				r := wp.Ring(uint32(w + 1))
				fr := frames[w]
				for !stop.Load() {
					if !r.Enqueue(fr) {
						// Ring full: yield instead of spinning the quantum
						// away dropping — essential when producer and worker
						// timeshare one core.
						runtime.Gosched()
					}
				}
			}(w)
		}
		start := time.Now()
		before := wp.Stats().Frames
		time.Sleep(measure)
		after := wp.Stats().Frames
		elapsed := time.Since(start).Seconds()
		stop.Store(true)
		wg.Wait()
		wp.Stop()
		return float64(after-before) / elapsed, nil
	}
	return 0, fmt.Errorf("e12: unknown mode %q", mode)
}
