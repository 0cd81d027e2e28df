package main

import (
	"time"

	"repro/internal/flowtable"
	"repro/internal/nf"
	"repro/internal/packet"
	"repro/internal/zof"
)

// layerTime is how long each layer's public call is timed.
const layerTime = 200 * time.Millisecond

var sink uint64

// layers times each layer's public calls on the stream's first
// positions. The parts the burst path runs per frame, plus
// dataplane.residual_ns, sum to dataplane.burst_ns by construction;
// the residual is the burst engine's own work (grouping, action
// execution, port send, clock reads).
func (b *dpBench) layers(tr *result) map[string]float64 {
	out := map[string]float64{}
	for k, v := range tr.layer {
		out[k] = v
	}
	const k = 4096
	frames := make([][]byte, k)
	for p := range frames {
		frames[p] = b.frames[b.order[p]][b.size[p]]
	}
	decoded := make([]packet.Frame, dpFlows)
	flowKeys := make([]packet.FlowKey, dpFlows)
	cacheKeys := make([]flowtable.CacheKey, dpFlows)
	for i := range decoded {
		_ = packet.Decode(b.frames[i][0], &decoded[i])
		flowKeys[i] = packet.ExtractFlowKey(&decoded[i])
		cacheKeys[i] = flowtable.MakeCacheKey(&decoded[i], 1)
	}

	var f packet.Frame
	out["packet.decode_ns"] = nsPer(layerTime, k, func() {
		for _, d := range frames {
			_ = packet.Decode(d, &f)
		}
	})
	out["packet.flowkey_ns"] = nsPer(layerTime, k, func() {
		for _, i := range b.order[:k] {
			sink ^= packet.ExtractFlowKey(&decoded[i]).FastHash()
		}
	})
	if b.nfchain { // only the tunnel stage hashes symmetrically
		out["packet.symhash_ns"] = nsPer(layerTime, k, func() {
			for _, i := range b.order[:k] {
				sink ^= flowKeys[i].SymmetricHash()
			}
		})
	}
	out["flowtable.cachekey_ns"] = nsPer(layerTime, k, func() {
		for _, i := range b.order[:k] {
			ck := flowtable.MakeCacheKey(&decoded[i], 1)
			sink ^= ck.Hash()
		}
	})

	// Microcache: one LookupBatch per burst over its distinct keys,
	// warm, as the burst engine issues it.
	cache := flowtable.NewMicroCache(0)
	dummy := &flowtable.Entry{}
	for i := range cacheKeys {
		cache.Put(cacheKeys[i], 1, dummy)
	}
	var gk []flowtable.CacheKey
	var gh []uint64
	var ends []int
	for s := 0; s < k; s += dpBurst {
		seen := map[int32]bool{}
		for _, i := range b.order[s : s+dpBurst] {
			if !seen[i] {
				seen[i] = true
				gk = append(gk, cacheKeys[i])
				gh = append(gh, cacheKeys[i].Hash())
			}
		}
		ends = append(ends, len(gk))
	}
	ents := make([]*flowtable.Entry, dpBurst)
	cached := make([]bool, dpBurst)
	out["flowtable.microcache_ns"] = nsPer(layerTime, len(gk), func() {
		s := 0
		for _, e := range ends {
			n := e - s
			cache.LookupBatch(1, gk[s:e], gh[s:e], ents[:n], cached[:n])
			s = e
		}
	})
	keysPerFrame := float64(len(gk)) / k

	// Table walk against the workload's own rules.
	t := flowtable.NewTable(0)
	now := time.Now()
	if b.nfchain {
		m := zof.MatchAll()
		m.Wildcards &^= zof.WInPort
		m.InPort = 1
		_ = t.Add(&flowtable.Entry{Match: m, Priority: 10, Actions: []zof.Action{zof.Output(2)}}, false, now)
	} else {
		for _, r := range b.rules {
			m := zof.MatchAll()
			m.IPDst, m.DstPrefix = ipOf(r.prefix), r.plen
			_ = t.Add(&flowtable.Entry{Match: m, Priority: r.priority, Actions: []zof.Action{zof.Output(r.port)}}, false, now)
		}
	}
	reqs := make([]flowtable.BatchLookup, 1024)
	for i := range reqs {
		reqs[i] = flowtable.BatchLookup{Frame: &decoded[i], Packets: 1, Bytes: minFrame}
	}
	out["flowtable.table_lookup_ns"] = nsPer(layerTime, len(reqs), func() { t.LookupBatch(reqs, 1, now) })

	parts := out["packet.decode_ns"] + out["flowtable.cachekey_ns"] +
		out["flowtable.microcache_ns"]*keysPerFrame +
		out["flowtable.table_lookup_ns"]*tr.layer["flowtable.walks_per_frame"]
	if b.nfchain {
		b.nfLayers(out)
		share := tr.layer["nf.out_share"]
		parts += out["nf.conntrack_ns"] + out["nf.nat_ns"] +
			out["nf.encap_ns"]*share + out["nf.decap_ns"]*(1-share)
	}
	if burst := out["dataplane.burst_ns"]; burst > 0 {
		out["dataplane.residual_ns"] = burst - parts
		out["dataplane.residual_pct"] = (burst - parts) / burst * 100
	}
	return out
}

// lend is the buffer service stages borrow outside a switch: a frame
// is copied on first write and reframed between two owned buffers.
type lend struct{ a, b []byte }

func same(x, y []byte) bool { return cap(x) > 0 && cap(y) > 0 && &x[:1][0] == &y[:1][0] }

func (m *lend) EnsureOwned(d []byte) []byte {
	if same(d, m.a) {
		return d
	}
	m.a = append(m.a[:0], d...)
	return m.a
}

func (m *lend) Grow(d []byte, head int) []byte {
	m.b = append(m.b[:0], make([]byte, head)...)
	m.b = append(m.b, d...)
	m.a, m.b = m.b, m.a
	return m.a
}

func (m *lend) Shrink(d []byte, off int) []byte {
	m.b = append(m.b[:0], d[off:]...)
	m.a, m.b = m.b, m.a
	return m.a
}

// nfLayers times each stage's ProcessBurst on the stream's microflow
// vectors, outbound (ct, nat, encap) and reply (decap, nat, ct), with
// every other outbound frame answered as the reflector does. Each
// stage's figure is nanoseconds per frame that passes it.
func (b *dpBench) nfLayers(out map[string]float64) {
	ct := nf.NewConntrack(nf.ConntrackConfig{Idle: time.Hour})
	nat := nf.NewNAT(nf.NATConfig{CT: ct, PublicIP: natPublic, PortLo: natPortLo, PortHi: natPortHi})
	enc, dec := nf.NewTunnelEncap(tunnel), nf.NewTunnelDecap(tunnel)

	const nb = 512
	type side struct {
		pk   []nf.Packet
		ptr  []*nf.Packet
		fr   []packet.Frame
		ln   []lend
		buf  [][]byte
		flow []int32
		runs []int
	}
	mk := func() *side {
		s := &side{pk: make([]nf.Packet, nb), ptr: make([]*nf.Packet, nb), fr: make([]packet.Frame, nb),
			ln: make([]lend, nb), buf: make([][]byte, nb), flow: make([]int32, nb)}
		for i := range s.ln {
			s.ln[i] = lend{make([]byte, 0, 2048), make([]byte, 0, 2048)}
			s.buf[i] = make([]byte, 0, 2048)
		}
		return s
	}
	o, r := mk(), mk()
	set := func(s *side, i int, in uint32, data []byte, now time.Time) {
		_ = packet.Decode(data, &s.fr[i])
		s.pk[i] = nf.Packet{InPort: in, Data: data, Frame: &s.fr[i], Mem: &s.ln[i], Now: now}
		s.ptr[i] = &s.pk[i]
	}
	// runs splits the first n packets into vectors of one microflow, as
	// the burst engine steers them.
	runs := func(s *side, n int) {
		s.runs = s.runs[:0]
		for i := 1; i <= n; i++ {
			if i == n || s.flow[i] != s.flow[i-1] || s.flow[i] < 0 {
				s.runs = append(s.runs, i)
			}
		}
	}
	pass := func(st nf.Stage, s *side) time.Duration {
		t0 := time.Now()
		from := 0
		for _, e := range s.runs {
			st.ProcessBurst(s.ptr[from:e])
			from = e
		}
		return time.Since(t0)
	}
	var tCT, tNAT, tEnc, tDec time.Duration
	var nOut, nRep int
	freshK := uint64(1) << 40
	pos := 0
	for deadline := time.Now().Add(2 * layerTime); time.Now().Before(deadline); {
		now := time.Now()
		for i := 0; i < nb; i++ {
			p := pos & (dpStream - 1)
			pos++
			data := b.frames[b.order[p]][b.size[p]]
			o.flow[i] = b.order[p]
			if b.fresh[p] {
				o.buf[i] = append(o.buf[i][:0], data...)
				setSource(o.buf[i], freshSource(freshK))
				freshK++
				data, o.flow[i] = o.buf[i], -1
			}
			set(o, i, 1, data, now)
		}
		runs(o, nb)
		tCT += pass(ct, o)
		tNAT += pass(nat, o)
		tEnc += pass(enc, o)
		nOut += nb
		n := 0
		for i := 0; i < nb; i += 2 {
			r.buf[n] = reflect(r.buf[n], o.pk[i].Data)
			r.flow[n] = o.flow[i]
			set(r, n, 2, r.buf[n], now)
			n++
		}
		runs(r, n)
		r.ptr = r.ptr[:n]
		tDec += pass(dec, r)
		tNAT += pass(nat, r)
		tCT += pass(ct, r)
		r.ptr = r.ptr[:nb]
		nRep += n
	}
	per := func(d time.Duration, n int) float64 { return float64(d.Nanoseconds()) / float64(n) }
	out["nf.conntrack_ns"] = per(tCT, nOut+nRep)
	out["nf.nat_ns"] = per(tNAT, nOut+nRep)
	out["nf.encap_ns"] = per(tEnc, nOut)
	out["nf.decap_ns"] = per(tDec, nRep)
}
