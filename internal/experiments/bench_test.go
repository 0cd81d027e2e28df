package experiments

// testing.B benchmarks for the synthetic evaluation suite (DESIGN.md),
// plus the ablations the design calls out. cmd/zbench renders the same
// experiments as full tables; these benches reuse each experiment's
// fixture so that each one is reproducible under `go test -bench`.

import (
	"fmt"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/controller"
	"repro/internal/dataplane"
	"repro/internal/flowtable"
	"repro/internal/intent"
	"repro/internal/packet"
	"repro/internal/te"
	"repro/internal/topo"
	"repro/internal/update"
	"repro/internal/workload"
	"repro/internal/zof"
)

// --- E1: reactive flow setup ------------------------------------------------

// e1Session is one fake switch connected to a live controller.
type e1Session struct {
	conn *zof.Conn
	gen  *workload.FlowGen
	buf  *packet.Buffer
	next uint32
}

func newE1Session(b *testing.B, addr string, dpid uint64) *e1Session {
	b.Helper()
	raw, err := net.Dial("tcp", addr)
	if err != nil {
		b.Fatal(err)
	}
	conn := zof.NewConn(raw)
	if err := conn.Handshake(); err != nil {
		b.Fatal(err)
	}
	fr := &zof.FeaturesReply{DPID: dpid, NumTables: 1}
	for p := uint32(1); p <= 4; p++ {
		fr.Ports = append(fr.Ports, zof.PortInfo{No: p, Name: fmt.Sprintf("p%d", p)})
	}
	for {
		msg, h, err := conn.Receive()
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := msg.(*zof.FeaturesRequest); ok {
			if err := conn.SendXID(fr, h.XID); err != nil {
				b.Fatal(err)
			}
			break
		}
	}
	return &e1Session{conn: conn,
		gen: workload.NewFlowGen(64, 1.2, int64(dpid)),
		buf: packet.NewBuffer(256), next: 1}
}

func (s *e1Session) fire(b *testing.B) {
	spec := s.gen.Next()
	frame := spec.Frame(s.buf, 32)
	id := s.next
	s.next++
	pi := &zof.PacketIn{BufferID: id, TotalLen: uint16(len(frame)),
		InPort: 1 + id%4, Reason: zof.ReasonNoMatch, Data: frame}
	if _, err := s.conn.Send(pi); err != nil {
		b.Fatal(err)
	}
}

func (s *e1Session) await(b *testing.B) {
	for {
		msg, _, err := s.conn.Receive()
		if err != nil {
			b.Fatal(err)
		}
		switch msg.(type) {
		case *zof.FlowMod, *zof.PacketOut:
			return
		}
	}
}

// BenchmarkE1FlowSetup measures one reactive flow-setup round trip:
// packet-in to the controller's learning app, response back — the unit
// of cbench throughput. Sub-benchmarks vary the pipelining window.
func BenchmarkE1FlowSetup(b *testing.B) {
	for _, window := range []int{1, 16} {
		b.Run(fmt.Sprintf("window-%d", window), func(b *testing.B) {
			ctl, err := controller.New(controller.Config{EventQueue: 1 << 16})
			if err != nil {
				b.Fatal(err)
			}
			defer ctl.Close()
			ctl.Use(apps.NewLearningSwitch())
			s := newE1Session(b, ctl.Addr(), 9001)
			defer s.conn.Close()

			b.ResetTimer()
			inFlight := 0
			for i := 0; i < b.N; i++ {
				s.fire(b)
				inFlight++
				if inFlight >= window {
					s.await(b)
					inFlight--
				}
			}
			for ; inFlight > 0; inFlight-- {
				s.await(b)
			}
		})
	}
}

// --- E2: lookup scaling ------------------------------------------------------

// BenchmarkE2Lookup sweeps structure x size; the experiment's figure is
// the ns/op of each sub-benchmark.
func BenchmarkE2Lookup(b *testing.B) {
	for _, n := range []int{1000, 100000} {
		fx := buildLookupFixture(n, int64(n))
		for _, p := range fx.probes() {
			b.Run(fmt.Sprintf("%s-%d", p.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p.fn(i)
				}
			})
		}
	}
}

// BenchmarkE2aMicroCache is the ablation: the authoritative table
// fronted by the microflow cache versus bare.
func BenchmarkE2aMicroCache(b *testing.B) {
	fx := buildLookupFixture(10000, 10000)
	now := time.Unix(0, 0)
	nf := len(fx.frames)
	b.Run("bare", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fx.linear.Lookup(fx.frames[i%nf], 1, 64, now)
		}
	})
	b.Run("cached", func(b *testing.B) {
		cache, gen := fx.cached, fx.linear.Gen()
		// Warm every microflow so the measurement reflects the steady
		// state (one authoritative lookup per flow, then cache hits).
		for _, f := range fx.frames {
			key := flowtable.MakeCacheKey(f, 1)
			cache.Put(key, gen, fx.linear.Lookup(f, 1, 64, now))
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := fx.frames[i%nf]
			key := flowtable.MakeCacheKey(f, 1)
			if _, ok := cache.Get(key, gen); !ok {
				e := fx.linear.Lookup(f, 1, 64, now)
				cache.Put(key, gen, e)
			}
		}
	})
}

// --- E3: WAN TE --------------------------------------------------------------

// BenchmarkE3Utilization times one full TE solve on the WAN at the
// experiment's knee, reporting the delivered fraction and the gain
// over the shortest-path baseline as custom metrics.
func BenchmarkE3Utilization(b *testing.B) {
	g, _ := topo.WAN(1000)
	m := workload.Gravity(g, 10000, 4).Scale(1.2)
	var frac, gain float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alloc, err := te.Solve(g, m, te.Config{KPaths: 4})
		if err != nil {
			b.Fatal(err)
		}
		sp := te.SolveShortestPath(g, m, 0)
		frac = alloc.DeliveredFraction()
		gain = alloc.TotalAllocated() / sp.TotalAllocated()
	}
	b.ReportMetric(frac, "delivered-frac")
	b.ReportMetric(gain, "gain-vs-sp")
}

// BenchmarkE3aKPaths is the path-diversity ablation.
func BenchmarkE3aKPaths(b *testing.B) {
	g, _ := topo.WAN(1000)
	m := workload.Gravity(g, 10000, 4).Scale(1.2)
	for _, k := range []int{1, 4} {
		b.Run(fmt.Sprintf("k-%d", k), func(b *testing.B) {
			var frac float64
			for i := 0; i < b.N; i++ {
				alloc, err := te.Solve(g, m, te.Config{KPaths: k})
				if err != nil {
					b.Fatal(err)
				}
				frac = alloc.DeliveredFraction()
			}
			b.ReportMetric(frac, "delivered-frac")
		})
	}
}

// --- E4: congestion-free updates ---------------------------------------------

// benchPlan times planning E4's congestion-free WAN transition at
// scratch s, reporting the intermediate-step count.
func benchPlan(b *testing.B, s float64, maxIntermediates int) {
	g, _ := topo.WAN(1000)
	old, target, err := e4Transition(g, 9000, 11, s)
	if err != nil {
		b.Fatal(err)
	}
	caps := update.Capacities(g)
	var steps int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plan, err := (update.Planner{MaxIntermediates: maxIntermediates}).Plan(old, target, caps)
		if err != nil {
			b.Fatal(err)
		}
		steps = plan.Intermediates()
	}
	b.ReportMetric(float64(steps), "intermediates")
}

// BenchmarkE4Update times planning one transition with 10% scratch.
func BenchmarkE4Update(b *testing.B) { benchPlan(b, 0.1, 16) }

// BenchmarkE4aScratch is the headroom ablation: planning cost and step
// count at different scratch settings.
func BenchmarkE4aScratch(b *testing.B) {
	for _, s := range []float64{0.05, 0.20} {
		b.Run(fmt.Sprintf("scratch-%.2f", s), func(b *testing.B) { benchPlan(b, s, 32) })
	}
}

// --- E5: failure recovery ----------------------------------------------------

// BenchmarkE5Recovery times one link-failure recompile event over a
// fat-tree intent mesh (down + up per iteration so state is stable).
func BenchmarkE5Recovery(b *testing.B) {
	g, edges, err := topo.FatTree(4, 1000)
	if err != nil {
		b.Fatal(err)
	}
	mgr := intent.NewManager(g, &nopInstaller{})
	if _, err := submitMesh(mgr, edges); err != nil {
		b.Fatal(err)
	}
	links := g.Links()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := links[i%len(links)].Key()
		mgr.OnLinkDown(k)
		mgr.OnLinkUp(k)
	}
}

// --- E6: packet codec ----------------------------------------------------------

// BenchmarkE6Codec covers decode, decode+flowkey and serialize at the
// experiment's frame sizes; allocs/op is the headline (must be 0).
func BenchmarkE6Codec(b *testing.B) {
	for _, size := range []int{64, 1500} {
		for _, op := range codecOps(size) {
			b.Run(fmt.Sprintf("%s-%dB", op.name, size), op.run)
		}
	}
}

// --- Bonus: datapath pipeline ------------------------------------------------

// BenchmarkPipelineForwarding measures the software switch's full
// receive-match-forward path with an installed flow (microflow-cache
// hot path).
func BenchmarkPipelineForwarding(b *testing.B) {
	sw, frames, err := laneSwitch(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.HandleFrame(1, frames[0])
	}
}

// --- E12: burst-mode datapath --------------------------------------------------

// BenchmarkE12BurstForwarding measures the batched pipeline walk: one
// lane, bursts of B frames of one microflow through HandleBurst —
// one snapshot load, one grouped cache lookup and one aggregated
// counter update per burst. ns/op is per burst; frames/s is the
// comparable headline against BenchmarkPipelineForwarding's per-frame
// path. allocs/op must stay 0: the burst scratch is pooled.
func BenchmarkE12BurstForwarding(b *testing.B) {
	for _, burst := range []int{1, 32, 256} {
		b.Run(fmt.Sprintf("burst-%d", burst), func(b *testing.B) {
			sw, frames, err := laneSwitch(1)
			if err != nil {
				b.Fatal(err)
			}
			batch := make([][]byte, burst)
			for i := range batch {
				batch[i] = frames[0]
			}
			b.ReportAllocs()
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				sw.HandleBurst(1, batch)
			}
			if el := time.Since(start).Seconds(); el > 0 {
				b.ReportMetric(float64(b.N*burst)/el, "frames/s")
			}
		})
	}
}

// BenchmarkE12RingIngress measures the full run-to-completion path:
// producer enqueues into a per-port ring, a worker drains bursts and
// walks them through the pipeline. Single lane, so producer and worker
// timeshare on a single-core host — frames/s is the end-to-end number.
func BenchmarkE12RingIngress(b *testing.B) {
	sw, frames, err := laneSwitch(1)
	if err != nil {
		b.Fatal(err)
	}
	wp := dataplane.NewWorkerPool(sw, dataplane.WorkerPoolConfig{Workers: 1, Burst: 32})
	r := wp.AddPort(1)
	wp.Start()
	defer wp.Stop()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		for !r.Enqueue(frames[0]) {
			runtime.Gosched()
		}
	}
	wp.Flush()
	if el := time.Since(start).Seconds(); el > 0 {
		b.ReportMetric(float64(b.N)/el, "frames/s")
	}
}
