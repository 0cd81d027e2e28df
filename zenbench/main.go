// Command zenbench is zen's benchmark: one program that drives the
// system only through its public entry points and reports end-to-end
// metrics (tracing off) or the per-layer ledger (tracing on) for one of
// three workloads.
//
//	zenbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads and why each exists:
//
//   - dp-fwd64: bare forwarding of 64-byte frames through
//     dataplane.Switch.HandleBurst, zipf(1.2) over 4096 microflows with
//     one frame in 64 opening a new microflow, against ~1024 L3 prefix
//     rules. Per-packet cost dominates; nf, zof and controller are idle.
//   - dp-nfchain: the same driver through ct -> nat -> encap, with a
//     reflector turning every other outbound frame into the peer's reply
//     (decap -> nat -> ct). Frame sizes 64/594/1400 in the ratio 7:4:1.
//   - fabric-reactive: core.Start on topo.Linear(3) with spf-routing
//     and l2-learning; 32 netem hosts per edge switch. Open loop:
//     datagrams on established pairs plus new host pairs whose first
//     datagram is set up reactively: the switches speak zof over
//     loopback TCP to the controller.
//
// An untraced run builds the system ten times; each build is timed
// (setup_s is the median) and then measured for a tenth of the window.
// Rates and latency percentiles are taken from raw samples per 250 ms
// slice on dp and per build window on fabric-reactive; the median over
// all slices, or windows, of all builds is reported. Every end-to-end
// metric is reported on every workload; the workload files state what
// each one counts there. The last line of standard output is the JSON
// result; the lines before it give the environment and every metric
// with its unit and sample count.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// bench is one workload. The constructor generates every input from
// the seed (not timed); setup builds the system until it is ready,
// warm-up included (timed as setup_s).
type bench interface {
	setup() error
	// window runs the workload for d. traced turns on the program's
	// own tracing (the controller flight recorder) and the benchmark's
	// per-call spans.
	window(d time.Duration, traced bool) (*result, error)
	// layers times public calls of each layer on the workload's inputs
	// and returns per-layer metrics; tr is the traced window.
	layers(tr *result) map[string]float64
	teardown()
}

// builds is how many times an untraced run builds the system and
// measures it, each for an equal share of the window. Medians over
// many short windows on fresh builds keep one slow build, or a slow
// stretch of the host, from setting a run's figures, and give sparse
// events such as fabric-reactive's first packets one estimate per
// build to take the median of.
const builds = 10

// minSeconds is the shortest window a run accepts: fabric-reactive's
// first-packet p99 needs minP99Samples new pairs in each build's share.
const minSeconds = 7

// result is what one timed window produced. An end-to-end metric is
// kept as a series of values, one per slice or one per window;
// combine merges the windows of several builds into one figure per
// metric, the median of all their values.
type result struct {
	attempted, failed uint64
	errs              []string // failed output checks
	series            map[string][]float64
	units             map[string]string
	counts            map[string]int     // samples behind a series
	aliases           map[string]string  // metric -> metric it reports
	layer             map[string]float64 // per-layer values read in the window
	primary           string             // end-to-end metric trace overhead is judged on
}

type metric struct {
	value float64
	unit  string
	n     int // samples behind the value; 0 for counts and rates
}

func newResult(primary string) *result {
	return &result{series: map[string][]float64{}, units: map[string]string{}, counts: map[string]int{},
		aliases: map[string]string{}, layer: map[string]float64{}, primary: primary}
}

func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.errs = append(r.errs, fmt.Sprintf(format, args...))
	}
}

func (r *result) addSeries(name, unit string, vals []float64, n int) {
	r.series[name] = append(r.series[name], vals...)
	r.units[name] = unit
	r.counts[name] += n
}

// addSliced keeps name_p50_us and name_p99_us of each of the window's
// n full slices; a slice's p99 needs minP99Samples samples.
func (r *result) addSliced(name string, n int, parts ...*samples) {
	p50, n50 := slicedQuantiles(0.50, n, 1, parts...)
	p99, n99 := slicedQuantiles(0.99, n, minP99Samples, parts...)
	r.addSeries(name+"_p50_us", "us", p50, n50)
	r.addSeries(name+"_p99_us", "us", p99, n99)
}

// addWindow keeps name_p50_us and name_p99_us over the whole window;
// the p99 needs minP99Samples.
func (r *result) addWindow(name string, s *samples) {
	n := len(s.v)
	r.addSeries(name+"_p50_us", "us", []float64{s.quantile(0.50)}, n)
	if n >= minP99Samples {
		r.addSeries(name+"_p99_us", "us", []float64{s.quantile(0.99)}, n)
	}
}

// alias reports metric dst with the value of metric src.
func (r *result) alias(dst, src string) { r.aliases[dst] = src }

// combine merges the windows of rs: each series becomes the median of
// all its values.
func combine(rs []*result) map[string]metric {
	series := map[string][]float64{}
	out := map[string]metric{}
	for _, r := range rs {
		for k, v := range r.series {
			series[k] = append(series[k], v...)
			out[k] = metric{0, r.units[k], out[k].n + r.counts[k]}
		}
	}
	for k, v := range series {
		out[k] = metric{median(v), out[k].unit, out[k].n}
	}
	for dst, src := range rs[0].aliases {
		out[dst] = out[src]
	}
	return out
}

// endToEnd names the gated metrics in report order.
var endToEnd = []string{
	"setup_s", "fwd_fps", "flowsetup_rps", "flowsetup_p50_us",
	"pkt_p50_us", "pkt_p99_us", "first_pkt_p50_us", "heap_mb",
}

// ungated are end-to-end figures an untraced run measures but leaves
// out of its result, because on fabric-reactive they follow the host's
// load more than the program (README.md). The traced run reports them
// from its untraced window.
var ungated = []string{"first_pkt_p99_us", "flowsetup_p99_us"}

// perLayer names the traced-run metrics with their units.
var perLayer = []struct{ name, unit string }{
	{"packet.decode_ns", "ns"},
	{"packet.flowkey_ns", "ns"},
	{"packet.symhash_ns", "ns"},
	{"flowtable.cachekey_ns", "ns"},
	{"flowtable.microcache_ns", "ns"},
	{"flowtable.table_lookup_ns", "ns"},
	{"flowtable.microcache_hit_ratio", "ratio"},
	{"flowtable.lookups_per_frame", "count"},
	{"nf.conntrack_ns", "ns"},
	{"nf.nat_ns", "ns"},
	{"nf.encap_ns", "ns"},
	{"nf.decap_ns", "ns"},
	{"nf.occupancy", "count"},
	{"nf.conns_created", "count"},
	{"nf.expiry_lag_max_ms", "ms"},
	{"nf.nat_exhausted", "count"},
	{"nf.drops", "count"},
	{"dataplane.burst_ns", "ns"},
	{"dataplane.residual_ns", "ns"},
	{"dataplane.residual_pct", "%"},
	{"dataplane.allocs_per_frame", "count"},
	{"dataplane.packet_ins", "count"},
	{"dataplane.burst_size_mean", "count"},
	{"zof.marshal_ns", "ns"},
	{"zof.unmarshal_ns", "ns"},
	{"zof.msgs_per_flush", "count"},
	{"zof.bytes_per_setup", "bytes"},
	{"controller.queue_wait_p50_us", "us"},
	{"controller.queue_wait_p99_us", "us"},
	{"controller.dispatch_p50_us", "us"},
	{"controller.dispatch_dropped", "count"},
	{"apps.routing_p50_us", "us"},
	{"apps.floods_in_window", "count"},
	{"netem.pipe_hop_p50_us", "us"},
	{"netem.link_drops", "count"},
	{"bench.gen_late_p99_us", "us"},
	{"bench.trace_overhead_pct", "%"},
	{"fail_ratio", "ratio"},
	{"first_pkt_p99_us", "us"},
	{"flowsetup_p99_us", "us"},
}

func newBench(name string, seed int64, d time.Duration) (bench, error) {
	switch name {
	case "dp-fwd64":
		return newDP(seed, false), nil
	case "dp-nfchain":
		return newDP(seed, true), nil
	case "fabric-reactive":
		return newFabric(seed, d)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func main() {
	workload := flag.String("workload", "", "dp-fwd64, dp-nfchain or fabric-reactive")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of the timed window")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	commit := flag.String("commit", "unknown", "commit of the measured tree")
	flag.Parse()
	if *seconds < minSeconds || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "zenbench: --seconds must be at least %d and --trace 0 or 1\n", minSeconds)
		os.Exit(2)
	}
	d := time.Duration(*seconds) * time.Second
	b, err := newBench(*workload, *seed, d)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zenbench:", err)
		os.Exit(2)
	}
	fmt.Printf("zenbench workload=%s seed=%d seconds=%d trace=%d\n", *workload, *seed, *seconds, *trace)
	fmt.Printf("env commit=%s go=%s cpu=%q nproc=%d gomaxprocs=%d\n",
		*commit, runtime.Version(), cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0))

	var out map[string]metric
	var res *result
	if *trace == 0 {
		out, res, err = runGated(b, d)
	} else {
		out, res, err = runTraced(b, d)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "zenbench:", err)
		os.Exit(1)
	}
	for _, e := range res.errs {
		fmt.Println("check failed:", e)
	}
	names := make([]string, 0, len(out))
	for n := range out {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := out[n]
		kind := "metric"
		if slices.Contains(ungated, n) && *trace == 0 {
			kind = "info"
		}
		fmt.Printf("%-6s %-32s %14.4f %-9s n=%d\n", kind, n, m.value, m.unit, m.n)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	js := struct {
		Correct   bool          `json:"correct"`
		Attempted uint64        `json:"attempted"`
		Failed    uint64        `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{len(res.errs) == 0, res.attempted, res.failed, map[string]jm{}}
	for n, m := range out {
		if *trace == 0 && !slices.Contains(endToEnd, n) {
			continue
		}
		js.Metrics[n] = jm{m.value, m.unit}
	}
	line, err := json.Marshal(js)
	if err != nil {
		fmt.Fprintln(os.Stderr, "zenbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if len(res.errs) > 0 {
		os.Exit(1)
	}
}

// runGated is the untraced run: it builds the system builds times,
// times each build as setup_s and measures an equal share of d on
// each.
func runGated(b bench, d time.Duration) (map[string]metric, *result, error) {
	base := liveHeap()
	var setups, heaps []float64
	var rs []*result
	for i := 0; i < builds; i++ {
		t0 := time.Now()
		if err := b.setup(); err != nil {
			return nil, nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		r, err := b.window(d/builds, false)
		if err == nil {
			heaps = append(heaps, (liveHeap()-base)/(1<<20))
		}
		runtime.KeepAlive(b)
		b.teardown()
		if err != nil {
			return nil, nil, err
		}
		rs = append(rs, r)
	}
	res := &result{}
	for _, r := range rs {
		res.attempted += r.attempted
		res.failed += r.failed
		res.errs = append(res.errs, r.errs...)
	}
	out := combine(rs)
	out["setup_s"] = metric{median(setups), "s", len(setups)}
	out["heap_mb"] = metric{median(heaps), "MiB", len(heaps)}
	for _, n := range endToEnd {
		m, ok := out[n]
		res.check(ok, "metric %s not measured", n)
		res.check(!ok || (m.value > 0 && !math.IsInf(m.value, 0)), "metric %s = %v, want > 0", n, m.value)
		res.check(!strings.HasSuffix(n, "_p99_us") || m.n >= minP99Samples,
			"metric %s from %d samples, a p99 needs %d", n, m.n, minP99Samples)
	}
	return out, res, nil
}

// runTraced measures an untraced and a traced window of one build's
// share of d, each on a fresh build, then times each layer's public calls on the
// workload's inputs against the second build.
func runTraced(b bench, d time.Duration) (map[string]metric, *result, error) {
	if err := b.setup(); err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	plain, err := b.window(d/builds, false)
	b.teardown()
	if err != nil {
		return nil, nil, err
	}
	if err := b.setup(); err != nil {
		return nil, nil, fmt.Errorf("setup: %w", err)
	}
	defer b.teardown()
	tr, err := b.window(d/builds, true)
	if err != nil {
		return nil, nil, err
	}
	lay := b.layers(tr)
	for k, v := range plain.layer {
		if _, ok := lay[k]; !ok {
			lay[k] = v
		}
	}
	pm := combine([]*result{plain})
	for _, n := range ungated {
		lay[n] = pm[n].value
	}
	u := pm[tr.primary].value
	t := combine([]*result{tr})[tr.primary].value
	over := 0.0
	if u > 0 {
		over = (u - t) / u * 100
		if strings.HasSuffix(tr.primary, "_us") { // lower is better
			over = -over
		}
	}
	lay["bench.trace_overhead_pct"] = over
	res := &result{
		attempted: plain.attempted + tr.attempted,
		failed:    plain.failed + tr.failed,
		errs:      append(plain.errs, tr.errs...),
	}
	lay["fail_ratio"] = float64(res.failed) / float64(res.attempted)
	out := map[string]metric{}
	for _, pl := range perLayer {
		v, ok := lay[pl.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[pl.name] = metric{v, pl.unit, 0}
	}
	return out, res, nil
}

// liveHeap returns the bytes of live heap after a full collection.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
