package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/dataplane"
	"repro/internal/flowtable"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/topo"
	"repro/internal/zof"
)

// fabric-reactive: core.Start on topo.Linear(3) with spf-routing and
// l2-learning, fabHosts netem hosts on each edge switch (more when a
// long window needs more never-used pairs), default per-frame links.
// One goroutine paces an open loop: datagrams on established host
// pairs at fabEstRate plus the first datagram of a never-used pair at
// fabNewRate, whose delivery needs a reactive path setup. Every pair
// crosses from one edge to the other: four pipe hops.
//
// End-to-end metrics on this workload:
//   - pkt_*: one-way latency of datagrams on established pairs, from
//     the due send time to delivery at the destination host.
//   - first_pkt_* and flowsetup_*: the same for a new pair's first
//     datagram: miss, packet-in, routing, FlowMods on every hop, buffer
//     release and four pipe hops.
//   - flowsetup_rps: new pairs whose first datagram reached the right
//     host, per second of the window.
//   - fwd_fps: datagrams delivered to the right host per second of the
//     window.
//
// Latencies are taken over each build's whole window: per-slice
// figures spread more from run to run.
const (
	fabHosts    = 32  // per edge switch, at least
	fabMaxHosts = 180 // per edge switch: pair indices fit 16 bits
	fabEstPairs = 64
	fabEstRate  = 20000 // datagrams/s on established pairs
	fabNewRate  = 1600  // new pairs/s
	fabWarm     = 2000  // warm-up datagrams on established pairs
	fabDrain    = 2 * time.Second
	fabSeqs     = 1 << 22
	dataPort    = 7000
	setupPort   = 9
)

type fabPair struct{ src, dst int } // host indices

type fabBench struct {
	edge    int       // hosts per edge switch
	pairs   []fabPair // fabEstPairs established, then new pairs in use order
	pick    []uint8   // established pair of each established datagram
	est     *samples
	first   *samples
	late    *samples
	seen    []uint64 // delivered sequence numbers, one bit each
	payload [32]byte

	net   *core.Network
	hosts []*netem.Host
	sws   []*dataplane.Switch
	links []topo.LinkKey
	phase byte
	t0    time.Time // phase start
	seq   uint32
	next  int // next unused pair

	estSent, newSent, picked int

	mu                     sync.Mutex // guards the delivery side
	delivered, wrong, dups uint64
	firsts                 uint64 // first datagrams of new pairs delivered
	curPhase               byte
}

// newFabric sizes the host population so that a build's warm-up and
// its share of the window d never run out of unused pairs, with a
// tenth to spare.
func newFabric(seed int64, d time.Duration) (*fabBench, error) {
	rng := rand.New(rand.NewSource(seed))
	perBuild := (time.Duration(fabWarm)*time.Second/fabEstRate + d/builds).Seconds()
	need := fabEstPairs + 1.1*fabNewRate*perBuild
	edge := max(fabHosts, int(math.Ceil(math.Sqrt(need/2))))
	if edge > fabMaxHosts {
		return nil, fmt.Errorf("fabric-reactive: a %v window needs %d hosts per edge, at most %d fit", d, edge, fabMaxHosts)
	}
	b := &fabBench{edge: edge, est: newSamples(1 << 21), first: newSamples(1 << 20), late: newSamples(1 << 21),
		seen: make([]uint64, fabSeqs/64)}
	var cross []fabPair
	for i := 0; i < edge; i++ {
		for j := 0; j < edge; j++ {
			cross = append(cross, fabPair{i, edge + j}, fabPair{edge + j, i})
		}
	}
	rng.Shuffle(len(cross), func(i, j int) { cross[i], cross[j] = cross[j], cross[i] })
	b.pairs = cross
	b.pick = make([]uint8, 1<<16)
	for i := range b.pick {
		b.pick[i] = uint8(rng.Intn(fabEstPairs))
	}
	return b, nil
}

func (b *fabBench) setup() error {
	n, err := core.Start(core.Options{
		Graph: topo.Linear(3, 1000),
		Apps:  []controller.App{apps.NewRouting(), apps.NewLearningSwitch()},
	})
	if err != nil {
		return err
	}
	b.net = n
	if err := n.DiscoverLinks(2, 5*time.Second); err != nil {
		return err
	}
	b.sws = b.sws[:0]
	for _, node := range n.Emu.Graph.Nodes() {
		b.sws = append(b.sws, n.Emu.Switches[node])
	}
	b.links = b.links[:0]
	for _, l := range n.Emu.Graph.Links() {
		b.links = append(b.links, l.Key())
	}
	b.hosts = b.hosts[:0]
	for e, node := range []topo.NodeID{1, 3} {
		for i := 0; i < b.edge; i++ {
			ip := packet.IPv4Addr{10, byte(node), 0, byte(1 + i)}
			h, err := n.AddHost(fmt.Sprintf("h%d-%d", node, i), node, ip)
			if err != nil {
				return err
			}
			idx := e*b.edge + i
			h.OnUDP = func(src packet.IPv4Addr, _, dport uint16, payload []byte) {
				if dport == dataPort {
					b.receive(idx, src, payload)
				}
			}
			b.hosts = append(b.hosts, h)
		}
	}
	for _, h := range b.hosts {
		for _, o := range b.hosts {
			if o != h {
				h.SeedARP(o.IP, o.MAC)
			}
		}
	}
	// Make every host known: each sends one datagram to its neighbour on
	// the same edge, which l2-learning floods while routing cannot.
	for i, h := range b.hosts {
		nb := b.hosts[(i/b.edge)*b.edge+(i+1)%b.edge]
		h.SendUDP(nb.IP, setupPort, setupPort, []byte("hello"))
	}
	for deadline := time.Now().Add(5 * time.Second); len(n.Controller.NIB().Hosts()) < len(b.hosts); {
		if time.Now().After(deadline) {
			return fmt.Errorf("controller knows %d of %d hosts", len(n.Controller.NIB().Hosts()), len(b.hosts))
		}
		time.Sleep(time.Millisecond)
	}
	// Set up the established pairs, then warm them.
	b.next = fabEstPairs
	b.startPhase()
	for i := 0; i < fabEstPairs; i++ {
		b.send(i, time.Now(), false)
	}
	if err := b.drain(); err != nil {
		return fmt.Errorf("establishing pairs: %w", err)
	}
	b.startPhase()
	b.drive(time.Time{}, fabWarm)
	return b.drain()
}

func (b *fabBench) teardown() {
	if b.net != nil {
		b.net.Stop()
		b.net = nil
	}
}

// startPhase forgets the previous phase's deliveries; datagrams of an
// earlier phase still in flight are ignored on arrival.
func (b *fabBench) startPhase() {
	b.mu.Lock()
	b.phase++
	b.curPhase = b.phase
	b.delivered, b.wrong, b.dups, b.firsts = 0, 0, 0, 0
	b.mu.Unlock()
	clear(b.seen)
	b.seq = 0
	b.estSent, b.newSent = 0, 0
	b.t0 = time.Now()
	b.est.start(b.t0)
	b.first.start(b.t0)
	b.late.start(b.t0)
}

// send transmits one datagram of pair p, stamped with its due time.
func (b *fabBench) send(p int, due time.Time, first bool) {
	pl := b.payload[:]
	binary.BigEndian.PutUint32(pl[0:], b.seq)
	binary.BigEndian.PutUint16(pl[4:], uint16(p))
	pl[6] = b.phase
	if first {
		pl[7] = 1
		b.newSent++
	} else {
		pl[7] = 0
		b.estSent++
	}
	binary.BigEndian.PutUint64(pl[8:], uint64(due.UnixNano()))
	b.seq++
	pr := b.pairs[p]
	b.hosts[pr.src].SendUDP(b.hosts[pr.dst].IP, dataPort, dataPort, pl)
}

// receive runs on the destination host's delivery goroutine.
func (b *fabBench) receive(host int, src packet.IPv4Addr, pl []byte) {
	now := time.Now()
	if len(pl) < 16 {
		return
	}
	seq := binary.BigEndian.Uint32(pl[0:])
	p := int(binary.BigEndian.Uint16(pl[4:]))
	due := time.Unix(0, int64(binary.BigEndian.Uint64(pl[8:])))
	b.mu.Lock()
	defer b.mu.Unlock()
	if pl[6] != b.curPhase {
		return
	}
	if p >= len(b.pairs) || b.pairs[p].dst != host || b.hosts[b.pairs[p].src].IP != src || seq >= fabSeqs {
		b.wrong++
		return
	}
	if b.seen[seq/64]&(1<<(seq%64)) != 0 {
		b.dups++
		return
	}
	b.seen[seq/64] |= 1 << (seq % 64)
	b.delivered++
	if pl[7] == 1 {
		b.firsts++
		b.first.push(now.Sub(due))
	} else {
		b.est.push(now.Sub(due))
	}
}

// waitUntil sleeps while the due time is far, then spins the last
// stretch: timer slack would otherwise be charged to the fabric.
func waitUntil(due time.Time) {
	if d := time.Until(due); d > 2*time.Millisecond {
		time.Sleep(d - time.Millisecond)
	}
	for time.Now().Before(due) {
	}
}

// drive paces the open loop until the deadline or, with a zero
// deadline, until maxEst established datagrams were sent.
func (b *fabBench) drive(until time.Time, maxEst int) {
	estGap := time.Second / fabEstRate
	newGap := time.Second / fabNewRate
	start := time.Now()
	ne, nn := 0, 0
	for {
		dueE := start.Add(time.Duration(ne) * estGap)
		dueN := start.Add(time.Duration(nn)*newGap + newGap/2)
		isNew := dueN.Before(dueE)
		due := dueE
		if isNew {
			due = dueN
		}
		if until.IsZero() && ne >= maxEst || !until.IsZero() && !due.Before(until) {
			return
		}
		waitUntil(due)
		b.late.push(time.Since(due))
		if isNew {
			if b.next == len(b.pairs) {
				nn++ // every pair used: the run is longer than the host population allows
				continue
			}
			b.send(b.next, due, true)
			b.next++
			nn++
		} else {
			b.send(int(b.pick[b.picked%len(b.pick)]), due, false)
			b.picked++
			ne++
		}
	}
}

// drain waits until every datagram of the phase arrived or fabDrain
// passed.
func (b *fabBench) drain() error {
	sent := uint64(b.estSent + b.newSent)
	for deadline := time.Now().Add(fabDrain); ; time.Sleep(time.Millisecond) {
		b.mu.Lock()
		got := b.delivered + b.wrong + b.dups
		b.mu.Unlock()
		if got >= sent {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d of %d datagrams arrived", got, sent)
		}
	}
}

// counters sums a per-switch registry counter over the fabric.
func (b *fabBench) counters() map[string]float64 {
	c := map[string]float64{}
	reg := b.net.Controller.Metrics()
	for _, sw := range b.sws {
		for _, n := range []string{"microcache.hits", "microcache.misses", "flowtable.0.lookups"} {
			v, _ := reg.Value(fmt.Sprintf("dataplane.%d.%s", sw.DPID(), n))
			c[n] += float64(v)
		}
		c["packet_ins"] += float64(sw.PacketIns.Load())
		for _, p := range sw.Ports() {
			st := p.Stats()
			c["rx"] += float64(st.RxPackets)
		}
	}
	for _, n := range []string{"zof.conn.tx_msgs", "zof.conn.flushes", "zof.conn.rx_bytes", "zof.conn.tx_bytes",
		"controller.dispatch.dropped", "apps.l2-learning.floods"} {
		v, _ := reg.Value(n)
		c[n] = float64(v)
	}
	for _, k := range b.links {
		_, abD, _, baD, err := b.net.Emu.LinkStats(k)
		if err == nil {
			c["link_drops"] += float64(abD + baD)
		}
	}
	return c
}

func (b *fabBench) window(d time.Duration, traced bool) (*result, error) {
	b.startPhase()
	c0 := b.counters()
	var fl *flight
	if traced {
		fl = startFlight(b.net.Controller.Tracing())
	}
	t0 := b.t0
	b.drive(t0.Add(d), 0)
	el := time.Since(t0).Seconds()
	r := newResult("pkt_p50_us")
	if fl != nil {
		fl.finish(r.layer)
	}
	c1 := b.counters()
	if err := b.drain(); err != nil {
		r.check(false, "%v", err)
	}
	dc := func(n string) float64 { return c1[n] - c0[n] }

	b.mu.Lock()
	defer b.mu.Unlock()
	sent := uint64(b.estSent + b.newSent)
	r.attempted = sent
	r.failed = sent - b.delivered + b.dups
	r.check(b.delivered == sent, "%d of %d datagrams delivered", b.delivered, sent)
	r.check(b.wrong == 0, "%d datagrams reached the wrong host", b.wrong)
	r.check(b.dups == 0, "%d datagrams delivered twice", b.dups)
	r.check(b.next < len(b.pairs), "ran out of new host pairs")
	r.addWindow("pkt", b.est)
	r.addWindow("first_pkt", b.first)
	r.alias("flowsetup_p50_us", "first_pkt_p50_us")
	r.alias("flowsetup_p99_us", "first_pkt_p99_us")
	r.addSeries("flowsetup_rps", "setups/s", []float64{float64(b.firsts) / el}, 0)
	r.addSeries("fwd_fps", "frames/s", []float64{float64(b.delivered) / el}, 0)

	hits, miss := dc("microcache.hits"), dc("microcache.misses")
	if hits+miss > 0 {
		r.layer["flowtable.microcache_hit_ratio"] = hits / (hits + miss)
	}
	r.layer["flowtable.lookups_per_frame"] = dc("flowtable.0.lookups") / dc("rx")
	r.layer["dataplane.packet_ins"] = dc("packet_ins")
	// Every frame enters through HandleFrame, a one-frame burst.
	r.layer["dataplane.burst_size_mean"] = 1
	if fl := dc("zof.conn.flushes"); fl > 0 {
		r.layer["zof.msgs_per_flush"] = dc("zof.conn.tx_msgs") / fl
	}
	if b.newSent > 0 {
		r.layer["zof.bytes_per_setup"] = (dc("zof.conn.rx_bytes") + dc("zof.conn.tx_bytes")) / float64(b.newSent)
	}
	r.layer["controller.dispatch_dropped"] = dc("controller.dispatch.dropped")
	r.layer["apps.floods_in_window"] = dc("apps.l2-learning.floods")
	r.layer["netem.link_drops"] = dc("link_drops")
	r.layer["bench.gen_late_p99_us"] = b.late.quantile(0.99)
	return r, nil
}

// layers times the datapath calls on the fabric's own datagrams and
// rules, one netem pipe hop at the fabric's rate, and the zof codec on
// its packet-ins and route installs.
func (b *fabBench) layers(tr *result) map[string]float64 {
	out := map[string]float64{}
	for k, v := range tr.layer {
		out[k] = v
	}
	var frames [][]byte
	var pis, fms []zof.Message
	for i, p := range b.pairs[:fabEstPairs] {
		src, dst := b.hosts[p.src], b.hosts[p.dst]
		f := udpFrame(endpoint{src.IP, dataPort}, endpoint{dst.IP, dataPort}, offPayload+len(b.payload))
		frames = append(frames, f)
		pis = append(pis, &zof.PacketIn{BufferID: uint32(i), TotalLen: uint16(len(f)), InPort: 3,
			Reason: zof.ReasonNoMatch, Data: f})
		m := zof.MatchAll()
		m.Wildcards &^= zof.WEthSrc | zof.WEthDst
		m.EthSrc, m.EthDst = src.MAC, dst.MAC
		fms = append(fms, &zof.FlowMod{Command: zof.FlowAdd, Match: m, Priority: 200, IdleTimeout: 300,
			BufferID: uint32(i), Actions: []zof.Action{zof.Output(2)}})
	}
	codecLayers(out, pis, fms)

	decoded := make([]packet.Frame, len(frames))
	var f packet.Frame
	out["packet.decode_ns"] = nsPer(layerTime, len(frames), func() {
		for _, d := range frames {
			_ = packet.Decode(d, &f)
		}
	})
	for i := range frames {
		_ = packet.Decode(frames[i], &decoded[i])
	}
	out["packet.flowkey_ns"] = nsPer(layerTime, len(decoded), func() {
		for i := range decoded {
			sink ^= packet.ExtractFlowKey(&decoded[i]).FastHash()
		}
	})
	out["flowtable.cachekey_ns"] = nsPer(layerTime, len(decoded), func() {
		for i := range decoded {
			k := flowtable.MakeCacheKey(&decoded[i], 1)
			sink ^= k.Hash()
		}
	})
	// The transit switch's table, as routing left it.
	t := flowtable.NewTable(0)
	now := time.Now()
	b.net.Emu.Switches[2].Process(&zof.StatsRequest{Kind: zof.StatsFlow, TableID: 0xff, Match: zof.MatchAll()}, 1,
		func(rep zof.Message, _ uint32) {
			if sr, ok := rep.(*zof.StatsReply); ok {
				for _, fs := range sr.Flows {
					_ = t.Add(&flowtable.Entry{Match: fs.Match, Priority: fs.Priority, Actions: fs.Actions}, false, now)
				}
			}
		})
	reqs := make([]flowtable.BatchLookup, len(decoded))
	for i := range reqs {
		reqs[i] = flowtable.BatchLookup{Frame: &decoded[i], Packets: 1, Bytes: uint64(len(frames[i]))}
	}
	out["flowtable.table_lookup_ns"] = nsPer(layerTime, len(reqs), func() { t.LookupBatch(reqs, 1, now) })
	out["netem.pipe_hop_p50_us"] = pipeHop()
	return out
}

// pipeHop sends timestamped frames through one netem.Pipe at the
// fabric's established rate and returns the median Send-to-deliver
// time.
func pipeHop() float64 {
	const n = fabEstRate / 2
	lat := newSamples(n)
	var mu sync.Mutex
	done := make(chan struct{})
	p := netem.NewPipe(netem.PipeConfig{}, func(d []byte) {
		t := time.Unix(0, int64(binary.BigEndian.Uint64(d)))
		mu.Lock()
		lat.push(time.Since(t))
		if len(lat.v) == n {
			close(done)
		}
		mu.Unlock()
	})
	defer p.Close()
	frame := make([]byte, minFrame)
	gap := time.Second / fabEstRate
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * gap)
		waitUntil(due)
		binary.BigEndian.PutUint64(frame, uint64(time.Now().UnixNano()))
		p.Send(frame)
	}
	select {
	case <-done:
	case <-time.After(fabDrain):
	}
	mu.Lock()
	defer mu.Unlock()
	return lat.quantile(0.50)
}
