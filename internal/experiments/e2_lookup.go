package experiments

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/flowtable"
	"repro/internal/packet"
	"repro/internal/zof"
)

// E2Config parameterizes the lookup-scaling experiment.
type E2Config struct {
	Sizes   []int         // table sizes to sweep
	Measure time.Duration // wall time per point (default 200ms)
}

// lookupFixture holds one populated structure set plus probe frames.
type lookupFixture struct {
	linear *flowtable.Table
	tuple  *flowtable.TupleSpace
	exact  *flowtable.Exact[int]
	lpm    *flowtable.LPM[int]
	cached *flowtable.MicroCache

	frames []*packet.Frame
	keys   []packet.FlowKey
	addrs  []uint32
}

// buildLookupFixture installs n rules into every structure. Rules are
// /24 destination prefixes (LPM/linear/tuple) and exact 5-tuples
// (exact map); probes are frames that hit.
func buildLookupFixture(n int, seed int64) *lookupFixture {
	rng := rand.New(rand.NewSource(seed))
	fx := &lookupFixture{
		linear: flowtable.NewTable(0),
		tuple:  flowtable.NewTupleSpace(),
		exact:  flowtable.NewExact[int](n),
		lpm:    flowtable.NewLPM[int](),
		cached: flowtable.NewMicroCache(1 << 17),
	}
	now := time.Unix(0, 0)
	prefixes := make([]uint32, n)
	for i := 0; i < n; i++ {
		p := rng.Uint32() &^ 0xff // /24
		prefixes[i] = p
		m := zof.MatchAll()
		m.Wildcards &^= zof.WEtherType
		m.EtherType = packet.EtherTypeIPv4
		m.IPDst = packet.IPv4FromUint32(p)
		m.DstPrefix = 24
		e := &flowtable.Entry{Match: m, Priority: uint16(i % 8),
			Actions: []zof.Action{zof.Output(1)}}
		_ = fx.linear.Add(e, false, now)
		fx.tuple.Insert(e)
		fx.lpm.Insert(p, 24, i)
	}
	// Probe set: 1024 frames landing inside random installed prefixes.
	buf := packet.NewBuffer(128)
	for i := 0; i < 1024; i++ {
		p := prefixes[rng.Intn(len(prefixes))]
		dst := packet.IPv4FromUint32(p | uint32(rng.Intn(256)))
		src := packet.IPv4FromUint32(rng.Uint32())
		buf.Reset()
		udp := packet.UDP{SrcPort: uint16(rng.Intn(65536)), DstPort: 80}
		udp.SerializeTo(buf)
		ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: src, Dst: dst}
		ip.SerializeTo(buf)
		eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
		eth.SerializeTo(buf)
		var f packet.Frame
		if packet.Decode(append([]byte(nil), buf.Bytes()...), &f) != nil {
			continue
		}
		fx.frames = append(fx.frames, &f)
		key := packet.ExtractFlowKey(&f)
		fx.keys = append(fx.keys, key)
		fx.exact.Put(key, i)
		fx.addrs = append(fx.addrs, dst.Uint32())
	}
	return fx
}

// lookupProbe is one structure's lookup over probe i.
type lookupProbe struct {
	name string
	fn   func(i int)
}

// probes returns the per-structure lookups in E2's column order; E2
// measures them with measureRate and BenchmarkE2Lookup under b.N.
func (fx *lookupFixture) probes() []lookupProbe {
	now := time.Unix(0, 0)
	nf := len(fx.frames)
	return []lookupProbe{
		{"linear", func(i int) { fx.linear.Lookup(fx.frames[i%nf], 1, 64, now) }},
		{"tuple", func(i int) { fx.tuple.Lookup(fx.frames[i%nf], 1) }},
		{"lpm", func(i int) { fx.lpm.Lookup(fx.addrs[i%nf]) }},
		{"exact", func(i int) { fx.exact.Get(fx.keys[i%nf]) }},
	}
}

// measureRate runs fn repeatedly for roughly d and returns ops/sec.
func measureRate(d time.Duration, fn func(i int)) float64 {
	if d <= 0 {
		d = 200 * time.Millisecond
	}
	// Calibrate with growing batches so the clock is read rarely.
	ops := 0
	start := time.Now()
	batch := 256
	for time.Since(start) < d {
		for i := 0; i < batch; i++ {
			fn(ops + i)
		}
		ops += batch
		if batch < 1<<20 {
			batch *= 2
		}
	}
	return float64(ops) / time.Since(start).Seconds()
}

// E2Lookup sweeps table sizes for every structure. Shape: exact-map and
// LPM rates are flat-ish in table size; tuple space pays per-shape
// probes; the linear scan decays as ~1/N.
func E2Lookup(cfg E2Config) *Table {
	if len(cfg.Sizes) == 0 {
		cfg.Sizes = []int{100, 1000, 10000, 100000}
	}
	t := &Table{
		ID:     "E2",
		Title:  "flow table lookup scaling (lookups/sec)",
		Header: []string{"entries", "linear", "tuple-space", "lpm-trie", "exact-map", "micro-cache"},
		Notes: []string{
			"probes hit installed /24 dst rules; exact map keyed by 5-tuple",
			"expected shape: exact ≥ cache ≥ lpm ≥ tuple ≫ linear; linear decays ~1/N",
		},
	}
	for _, n := range cfg.Sizes {
		fx := buildLookupFixture(n, int64(n))
		nf := len(fx.frames)
		row := []string{fmt.Sprintf("%d", n)}
		for _, p := range fx.probes() {
			row = append(row, f0(measureRate(cfg.Measure, p.fn)))
		}
		// Micro-cache: warm it once, then measure hits.
		gen := fx.linear.Gen()
		for i, f := range fx.frames {
			key := flowtable.MakeCacheKey(f, 1)
			fx.cached.Put(key, gen, fx.linear.Entries()[i%fx.linear.Len()])
		}
		cache := measureRate(cfg.Measure, func(i int) {
			key := flowtable.MakeCacheKey(fx.frames[i%nf], 1)
			fx.cached.Get(key, gen)
		})
		t.AddRow(append(row, f0(cache))...)
	}
	return t
}
