package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"repro/internal/dataplane"
	"repro/internal/nf"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/zof"
)

// The datapath workloads share one closed-loop driver: a goroutine
// builds bursts of dpBurst frames from a pre-generated stream and calls
// HandleBurst on ingress port 1.
//
// End-to-end metrics on these workloads:
//   - fwd_fps: frames leaving an output port per second (dp-nfchain:
//     both directions).
//   - flowsetup_rps: new flows set up per second, counted as the
//     first frames of new flows that left correctly: on the port the
//     reference classifier gives (dp-fwd64), translated and tunnelled
//     (dp-nfchain).
//   - first_pkt_* and flowsetup_*: completion time of ingress bursts
//     carrying a new flow's first frame, from the HandleBurst call to
//     the last frame leaving; pkt_*: the same for bursts of established
//     flows only. Taken per 250 ms slice.
const (
	dpBurst      = 32
	dpFlows      = 4096
	dpStream     = 1 << 16 // positions in the repeating frame stream
	dpFreshOne   = 64      // one frame in dpFreshOne opens a new flow
	dpRules      = 1024
	dpPorts      = 8             // output ports 2..9 on dp-fwd64
	dpWarm       = 16 * dpStream // warm-up frames: every stream position 16 times
	dpFillRounds = 256           // most stream passes spent filling the microcache
	dpSamples    = 1 << 21       // latency samples kept per class and window

	nfIdle    = 150 * time.Millisecond
	nfTick    = 10 * time.Millisecond
	natPortLo = 20000
	natPortHi = 60000
	checkEach = 1024 // output frames between sampled content checks

	// offWant is the payload byte of a dp-fwd64 frame that holds the
	// output port the reference classifier gives it.
	offWant = offPayload + 6
)

var (
	natPublic = packet.IPv4Addr{192, 0, 2, 1}
	tunnel    = nf.TunnelConfig{
		VNI:       42,
		LocalIP:   packet.IPv4Addr{10, 200, 0, 1},
		RemoteIP:  packet.IPv4Addr{10, 200, 0, 2},
		LocalMAC:  packet.MACFromUint64(0x02e1500000a1),
		RemoteMAC: packet.MACFromUint64(0x02e1500000b1),
	}
)

type dpRule struct {
	prefix   uint32
	plen     uint8
	priority uint16
	port     uint32
}

type dpBench struct {
	nfchain bool

	// Inputs.
	frames [][3][]byte // per flow, one frame per size class
	expect []uint32    // dp-fwd64: output port of each flow
	order  []int32     // stream: flow index per position
	fresh  []bool      // stream: position opens a new flow
	size   []uint8     // stream: size class per position
	rules  []dpRule
	ring   [dpBurst][]byte // scratch frames for new flows
	reply  [dpBurst][]byte // reflector output
	pkt    *samples
	first  *samples

	// System.
	sw  *dataplane.Switch
	reg *obs.Registry
	ct  *nf.Conntrack
	nat *nf.NAT

	pos       int    // next stream position
	freshNext uint64 // next never-used source
	tx        [dpPorts + 2]uint64
	nreply    int
	flip      bool
	badOut    uint64 // sampled outbound frames with a wrong rewrite
	badReply  uint64 // sampled replies not restored to the private endpoint
	checked   uint64
	natPeak   int
	inSent    uint64 // frames offered on port 1
	replySent uint64 // frames offered on port 2
	burstNS   int64  // traced: time inside HandleBurst
	burstN    uint64 // traced: frames handed to HandleBurst

	out      uint64    // frames that left any output port
	freshOut uint64    // first frames of new flows that left correctly
	fwd      rates     // frames out per slice
	setups   rates     // new flows set up per slice
	nextTick time.Time // dp-nfchain: next Switch.Tick
}

func newDP(seed int64, nfchain bool) *dpBench {
	rng := rand.New(rand.NewSource(seed))
	b := &dpBench{nfchain: nfchain,
		pkt: newSamples(dpSamples), first: newSamples(dpSamples)}

	// ~1024 prefix rules at distinct, shuffled priorities over 10/8,
	// each toward one of the output ports; a /8 default catches the rest.
	prios := rng.Perm(dpRules)
	for i := 0; i < dpRules; i++ {
		plen := uint8(12 + rng.Intn(13))
		mask := ^uint32(0) << (32 - plen)
		b.rules = append(b.rules, dpRule{
			prefix:   (10<<24 | rng.Uint32()&0xffffff) & mask,
			plen:     plen,
			priority: uint16(100 + prios[i]),
			port:     uint32(2 + rng.Intn(dpPorts)),
		})
	}
	b.rules = append(b.rules, dpRule{prefix: 10 << 24, plen: 8, priority: 1, port: 2})
	sort.Slice(b.rules, func(i, j int) bool { return b.rules[i].priority > b.rules[j].priority })

	sizes := [3]int{minFrame, 594, 1400}
	seen := map[endpoint]bool{}
	for i := 0; i < dpFlows; i++ {
		var s endpoint
		for {
			s = endpoint{ipOf(10<<24 | 1<<16 | uint32(rng.Intn(1<<16))), uint16(1024 + rng.Intn(60000))}
			if !seen[s] {
				break
			}
		}
		seen[s] = true
		r := b.rules[rng.Intn(dpRules)]
		d := endpoint{ipOf(r.prefix | rng.Uint32()&^(^uint32(0)<<(32-r.plen))), uint16(1 + rng.Intn(4000))}
		var fs [3][]byte
		for c := range fs {
			if c == 0 || nfchain {
				fs[c] = udpFrame(s, d, sizes[c])
			}
		}
		want := b.match(d.ip.Uint32())
		fs[0][offWant] = byte(want)
		b.frames = append(b.frames, fs)
		b.expect = append(b.expect, want)
	}
	zipf := rand.NewZipf(rng, 1.2, 1, dpFlows-1)
	b.order = make([]int32, dpStream)
	b.fresh = make([]bool, dpStream)
	b.size = make([]uint8, dpStream)
	for p := range b.order {
		b.order[p] = int32(zipf.Uint64())
	}
	if nfchain {
		// Sizes 7:4:1, spread evenly: every three bursts carry 56, 32
		// and 8 frames of each size, shuffled within the burst, so a
		// burst's work does not depend on how many large frames it drew.
		mix := [3][3]int{{19, 11, 2}, {19, 10, 3}, {18, 11, 3}}
		for k := 0; k < dpStream/dpBurst; k++ {
			burst := b.size[k*dpBurst : (k+1)*dpBurst]
			i := 0
			for c, n := range mix[k%3] {
				for ; n > 0; n-- {
					burst[i] = uint8(c)
					i++
				}
			}
			rng.Shuffle(len(burst), func(x, y int) { burst[x], burst[y] = burst[y], burst[x] })
		}
	}
	for blk := 0; blk < dpStream; blk += dpFreshOne {
		b.fresh[blk+rng.Intn(dpFreshOne)] = true
	}
	for i := range b.ring {
		b.ring[i] = make([]byte, 0, 1500)
		b.reply[i] = make([]byte, 0, 1500+nf.TunnelOverhead)
	}
	return b
}

// match is the reference classifier: the highest-priority rule whose
// prefix holds dst.
func (b *dpBench) match(dst uint32) uint32 {
	for _, r := range b.rules {
		if dst&(^uint32(0)<<(32-r.plen)) == r.prefix {
			return r.port
		}
	}
	return 0
}

func (b *dpBench) flowMod(m zof.Match, prio uint16, acts ...zof.Action) error {
	var err error
	b.sw.Process(&zof.FlowMod{Command: zof.FlowAdd, Match: m, Priority: prio,
		BufferID: zof.NoBuffer, Actions: acts}, 1,
		func(rep zof.Message, _ uint32) {
			if e, ok := rep.(*zof.Error); ok {
				err = fmt.Errorf("flow add: %s", e.Detail)
			}
		})
	return err
}

func (b *dpBench) setup() error {
	b.sw = dataplane.NewSwitch(dataplane.Config{DPID: 1, DropOnMiss: true})
	b.tx = [dpPorts + 2]uint64{}
	if b.nfchain {
		b.ct = nf.NewConntrack(nf.ConntrackConfig{Idle: nfIdle})
		b.nat = nf.NewNAT(nf.NATConfig{CT: b.ct, PublicIP: natPublic, PortLo: natPortLo, PortHi: natPortHi})
		b.natPeak = 0
		stages := []nf.Stage{b.ct, b.nat, nf.NewTunnelEncap(tunnel), nf.NewTunnelDecap(tunnel)}
		for i, st := range stages {
			if err := b.sw.RegisterStage(uint32(i+1), st); err != nil {
				return err
			}
		}
		b.sw.AddPort(1, "inside", 10000).SetTx(b.insideTx)
		b.sw.AddPort(2, "underlay", 10000).SetTx(b.underlayTx)
		out := zof.MatchAll()
		out.Wildcards &^= zof.WInPort
		out.InPort = 1
		if err := b.flowMod(out, 10, zof.NF(1), zof.NF(2), zof.NF(3), zof.Output(2)); err != nil {
			return err
		}
		back := zof.MatchAll()
		back.Wildcards &^= zof.WInPort | zof.WIPProto | zof.WTPDst
		back.InPort, back.IPProto, back.TPDst = 2, packet.ProtoUDP, nf.DefaultVXLANPort
		if err := b.flowMod(back, 10, zof.NF(4), zof.NF(2), zof.NF(1), zof.Output(1)); err != nil {
			return err
		}
	} else {
		b.sw.AddPort(1, "in", 10000)
		for p := uint32(2); p < 2+dpPorts; p++ {
			no := p
			b.sw.AddPort(no, fmt.Sprintf("out%d", no), 10000).SetTx(func(f []byte) {
				b.tx[no]++
				b.out++
				if isFresh(f[offIPSrc:]) && f[offWant] == byte(no) {
					b.freshOut++
				}
			})
		}
		for _, r := range b.rules {
			m := zof.MatchAll()
			m.IPDst, m.DstPrefix = ipOf(r.prefix), r.plen
			if err := b.flowMod(m, r.priority, zof.Output(r.port)); err != nil {
				return err
			}
		}
	}
	b.reg = obs.NewRegistry()
	b.sw.RegisterMetrics(b.reg, "dataplane.1")
	b.startSlices(time.Now())
	for warm := b.inSent + dpWarm; b.inSent < warm; {
		b.pump(time.Time{}, false)
	}
	// Then on until the microcache stops growing, so that its size, and
	// the heap, no longer depend on how long the switch has run.
	prev := -1.0
	for i := 0; i < dpFillRounds; i++ {
		for next := b.inSent + dpStream; b.inSent < next; {
			b.pump(time.Time{}, false)
		}
		flows := b.counter("microcache.flows")
		if flows <= prev*1.01 {
			break
		}
		prev = flows
	}
	return nil
}

// startSlices begins a window's latency samples and per-slice rates
// at t0.
func (b *dpBench) startSlices(t0 time.Time) {
	b.pkt.start(t0)
	b.first.start(t0)
	b.fwd.start(t0)
	b.setups.start(t0)
}

// tick drives conntrack expiry and records the NAT binding peak. The
// driver calls it between bursts every nfTick: a sweep on another
// goroutine would contend with the burst for conntrack shard locks at
// a rate that sets the burst p99 by chance from run to run.
func (b *dpBench) tick(now time.Time) {
	b.sw.Tick(now)
	if n := b.nat.Bindings(); n > b.natPeak {
		b.natPeak = n
	}
	b.nextTick = now.Add(nfTick)
}

func (b *dpBench) teardown() {
	b.sw, b.reg, b.ct, b.nat = nil, nil, nil, nil
}

// underlayTx is port 2 on dp-nfchain: it checks the rewrite of every
// new flow's first frame and of sampled others and, like a remote
// peer, answers every other frame.
func (b *dpBench) underlayTx(f []byte) {
	b.tx[2]++
	b.out++
	const in = nf.TunnelOverhead
	fresh := len(f) >= in+offPayload+4 && isFresh(f[in+offPayload:])
	if fresh || b.tx[2]%checkEach == 0 {
		b.checked++
		if !outboundOK(f) {
			b.badOut++
		} else if fresh {
			b.freshOut++
		}
	}
	b.flip = !b.flip
	if !b.flip || b.nreply == len(b.reply) {
		return
	}
	b.reply[b.nreply] = reflect(b.reply[b.nreply], f)
	b.nreply++
}

// reflect writes into dst the reply a remote peer sends to a tunnelled
// frame: both header layers with source and destination swapped.
func reflect(dst, f []byte) []byte {
	r := append(dst[:0], f...)
	swap := func(a, c, n int) {
		for i := 0; i < n; i++ {
			r[a+i], r[c+i] = r[c+i], r[a+i]
		}
	}
	const in = nf.TunnelOverhead
	swap(0, 6, 6)                     // outer MACs
	swap(offIPSrc, offIPDst, 4)       // outer IPs (checksum unchanged)
	swap(in, in+6, 6)                 // inner MACs
	swap(in+offIPSrc, in+offIPDst, 4) // inner IPs
	swap(in+offUDP, in+offUDP+2, 2)   // inner ports
	binary.BigEndian.PutUint16(r[in+offUDP+6:], 0)
	return r
}

// outboundOK: tunnelled to the remote VTEP, inner source translated to
// the public address and a pool port.
func outboundOK(f []byte) bool {
	const in = nf.TunnelOverhead
	if len(f) < in+offPayload || binary.BigEndian.Uint16(f[offUDP+2:]) != nf.DefaultVXLANPort {
		return false
	}
	var dst, isrc packet.IPv4Addr
	copy(dst[:], f[offIPDst:])
	copy(isrc[:], f[in+offIPSrc:])
	port := binary.BigEndian.Uint16(f[in+offUDP:])
	return dst == tunnel.RemoteIP && isrc == natPublic && port >= natPortLo && port <= natPortHi
}

// insideTx is port 1 on dp-nfchain: replies after decap and un-NAT
// must be plain frames addressed to the private endpoint whose
// datagram they answer (carried in the payload).
func (b *dpBench) insideTx(f []byte) {
	b.tx[1]++
	b.out++
	if b.tx[1]%checkEach != 0 {
		return
	}
	b.checked++
	if len(f) < offPayload+6 || binary.BigEndian.Uint16(f[12:]) != packet.EtherTypeIPv4 {
		b.badReply++
		return
	}
	want := getEndpoint(f[offPayload:])
	var got endpoint
	copy(got.ip[:], f[offIPDst:])
	got.port = binary.BigEndian.Uint16(f[offUDP+2:])
	if got != want {
		b.badReply++
	}
}

// pump drives bursts until the deadline, recording the completion time
// of every ingress burst and, per slice, the frames out and the new
// flows set up; traced also sums the time inside every HandleBurst call,
// replies included, for dataplane.burst_ns.
func (b *dpBench) pump(until time.Time, traced bool) {
	var vec [dpBurst][]byte
	for {
		hasFresh := false
		for j := 0; j < dpBurst; j++ {
			p := b.pos & (dpStream - 1)
			b.pos++
			f := b.frames[b.order[p]][b.size[p]]
			if b.fresh[p] {
				hasFresh = true
				buf := append(b.ring[j][:0], f...)
				setSource(buf, freshSource(b.freshNext))
				b.freshNext++
				f = buf
			}
			vec[j] = f
		}
		b.nreply = 0
		out0, fresh0 := b.out, b.freshOut
		t0 := time.Now()
		b.sw.HandleBurst(1, vec[:])
		t1 := time.Now()
		b.inSent += dpBurst
		if hasFresh {
			b.first.add(t1, t1.Sub(t0))
		} else {
			b.pkt.add(t1, t1.Sub(t0))
		}
		if traced {
			b.burstNS += int64(t1.Sub(t0))
			b.burstN += dpBurst
		}
		if n := b.nreply; n > 0 {
			b.sw.HandleBurst(2, b.reply[:n])
			t2 := time.Now()
			if traced {
				b.burstNS += int64(t2.Sub(t1))
				b.burstN += uint64(n)
			}
			b.replySent += uint64(n)
			t1 = t2
		}
		b.fwd.add(t1, b.out-out0)
		b.setups.add(t1, b.freshOut-fresh0)
		if b.nfchain && !t1.Before(b.nextTick) {
			b.tick(t1)
		}
		if !t1.Before(until) {
			return
		}
	}
}

func (b *dpBench) counter(name string) float64 {
	v, _ := b.reg.Value("dataplane.1." + name)
	return float64(v)
}

// nfCounters sums the NF stage counters from the switch's own
// introspection view.
func (b *dpBench) nfCounters() (entries int, c map[string]uint64) {
	c = map[string]uint64{}
	for _, st := range b.sw.StageSummaries() {
		if st.Module == "conntrack" {
			entries = st.Summary.Entries
		}
		for k, v := range st.Summary.Counters {
			c[st.Module+"."+k] += v
		}
	}
	return entries, c
}

func (b *dpBench) window(d time.Duration, traced bool) (*result, error) {
	b.tx = [dpPorts + 2]uint64{}
	b.inSent, b.replySent, b.badOut, b.badReply, b.checked = 0, 0, 0, 0, 0
	b.burstNS, b.burstN = 0, 0
	hits0, miss0, look0 := b.counter("microcache.hits"), b.counter("microcache.misses"), b.counter("flowtable.0.lookups")
	_, nf0 := b.nfCounters()
	m0 := mallocs()
	pos0 := b.pos

	t0 := time.Now()
	b.startSlices(t0)
	b.pump(t0.Add(d), traced)
	slices := int(d / sliceDur)

	m1 := mallocs()
	hits, miss := b.counter("microcache.hits")-hits0, b.counter("microcache.misses")-miss0
	look := b.counter("flowtable.0.lookups") - look0
	entries, nf1 := b.nfCounters()
	delta := func(k string) float64 { return float64(nf1[k] - nf0[k]) }

	r := newResult("fwd_fps")
	handled := float64(b.inSent + b.replySent)
	r.attempted = b.inSent + b.replySent
	if b.nfchain {
		r.failed = b.inSent - b.tx[2] + b.replySent - b.tx[1] + b.badOut + b.badReply
		r.check(b.tx[2] == b.inSent, "outbound: %d of %d frames left the underlay port", b.tx[2], b.inSent)
		r.check(b.tx[1] == b.replySent, "replies: %d of %d frames left the inside port", b.tx[1], b.replySent)
		r.check(b.checked > 0, "no output frame was sampled for a content check")
		r.check(b.badOut == 0, "outbound: %d of %d sampled frames not tunnelled from %v", b.badOut, b.checked, natPublic)
		r.check(b.badReply == 0, "replies: %d sampled frames not restored to the private endpoint", b.badReply)
		r.check(nf1["nat.exhausted"] == 0, "nat exhausted %d times", nf1["nat.exhausted"])
		peak := b.natPeak
		r.check(peak <= (natPortHi-natPortLo+1)/4,
			"nat peak %d bindings leaves under 2x headroom at twice the rate", peak)
		drops := 0.0
		for _, k := range []string{"nat.exhausted", "nat.unbound", "nat.refused", "vxlan-decap.not_vxlan", "vxlan-decap.bad_vni"} {
			drops += delta(k)
		}
		maxLag, _ := b.ct.ExpiryLag()
		r.layer["nf.occupancy"] = float64(entries)
		r.layer["nf.conns_created"] = delta("conntrack.created")
		r.layer["nf.expiry_lag_max_ms"] = float64(maxLag.Nanoseconds()) / 1e6
		r.layer["nf.nat_exhausted"] = delta("nat.exhausted")
		r.layer["nf.drops"] = drops
	} else {
		// Each frame must leave the port of the highest-priority rule
		// holding its destination, per the reference classifier.
		var want [dpPorts + 2]uint64
		for p := pos0; p < b.pos; p++ {
			want[b.expect[b.order[p&(dpStream-1)]]]++
		}
		for no := range want {
			if want[no] > b.tx[no] {
				r.failed += want[no] - b.tx[no]
			}
			r.check(want[no] == b.tx[no], "port %d sent %d frames, its rules route %d", no, b.tx[no], want[no])
		}
	}
	r.addSeries("fwd_fps", "frames/s", sliceRates(slices, &b.fwd), 0)
	r.addSeries("flowsetup_rps", "setups/s", sliceRates(slices, &b.setups), 0)
	r.addSliced("pkt", slices, b.pkt)
	r.addSliced("first_pkt", slices, b.first)
	r.alias("flowsetup_p50_us", "first_pkt_p50_us")
	r.alias("flowsetup_p99_us", "first_pkt_p99_us")

	if hits+miss > 0 {
		r.layer["flowtable.microcache_hit_ratio"] = hits / (hits + miss)
	}
	r.layer["flowtable.lookups_per_frame"] = look / handled
	r.layer["flowtable.walks_per_frame"] = miss / handled
	r.layer["dataplane.packet_ins"] = float64(b.sw.PacketIns.Load())
	if h := b.reg.Snapshot()["dataplane.1.burst.sizes"].Hist; h != nil {
		r.layer["dataplane.burst_size_mean"] = float64(h.MeanNS)
	}
	if !traced {
		r.layer["dataplane.allocs_per_frame"] = float64(m1-m0) / handled
	}
	if b.burstN > 0 {
		r.layer["dataplane.burst_ns"] = float64(b.burstNS) / float64(b.burstN)
		r.layer["nf.out_share"] = float64(b.inSent) / handled
	}
	return r, nil
}
