package experiments

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/apps"
	"repro/internal/controller"
	"repro/internal/dataplane"
	"repro/internal/netem"
	"repro/internal/packet"
	"repro/internal/zof"
)

// E9Config parameterizes the control-channel recovery experiment.
type E9Config struct {
	ProbeInterval time.Duration   // liveness probe period (default 25ms)
	MissBudgets   []int           // probe miss budgets to sweep (default 1,2,3)
	Backoffs      []time.Duration // session MinBackoff values (default 10ms, 50ms)
	Rules         int             // ACL rules installed as reconcilable state (default 16)
}

// E9Point is one (miss budget, backoff) configuration taken through the
// full failure lifecycle: blackhole → eviction, heal → reconnect +
// flow-state convergence, crash-restart → convergence from an empty
// table.
type E9Point struct {
	MissBudget int     `json:"miss_budget"`
	BackoffMS  float64 `json:"backoff_ms"`
	// DetectMS is the controller's measured detection latency (first
	// missed probe send → eviction); DetectBoundMS is the contract:
	// ProbeInterval × MissBudget.
	DetectMS      float64 `json:"detect_ms"`
	DetectBoundMS float64 `json:"detect_bound_ms"`
	// DetectWallMS is blackhole onset → SwitchDown observed, which adds
	// the wait for the next probe tick to DetectMS.
	DetectWallMS float64 `json:"detect_wall_ms"`
	// ReconnectMS is partition heal → Reconnect SwitchUp observed.
	ReconnectMS float64 `json:"reconnect_ms"`
	// FlapConvergeMS is heal → flow table converged (intended rules
	// present under the live epoch, stale rules flushed) for a
	// control-channel flap that left the table populated.
	FlapConvergeMS float64 `json:"flap_converge_ms"`
	// CrashConvergeMS is restart → converged for a crash-restart that
	// came back with an empty table, under active traffic.
	CrashConvergeMS float64 `json:"crash_converge_ms"`
	// StaleFlushed counts flows reconciliation removed (rules retired
	// while the switch was partitioned).
	StaleFlushed uint64 `json:"stale_flushed"`
	Converged    bool   `json:"converged"`
}

// E9Result is the machine-readable output (BENCH_e9.json).
type E9Result struct {
	ProbeIntervalMS float64   `json:"probe_interval_ms"`
	Rules           int       `json:"rules"`
	Points          []E9Point `json:"points"`
}

// e9Recorder surfaces switch lifecycle events to the driving goroutine.
type e9Recorder struct {
	ups   chan controller.SwitchUp
	downs chan controller.SwitchDown
}

func newE9Recorder() *e9Recorder {
	return &e9Recorder{
		ups:   make(chan controller.SwitchUp, 64),
		downs: make(chan controller.SwitchDown, 64),
	}
}

func (r *e9Recorder) Name() string { return "e9-recorder" }

func (r *e9Recorder) SwitchUp(c *controller.Controller, ev controller.SwitchUp) {
	select {
	case r.ups <- ev:
	default:
	}
}

func (r *e9Recorder) SwitchDown(c *controller.Controller, ev controller.SwitchDown) {
	select {
	case r.downs <- ev:
	default:
	}
}

func (r *e9Recorder) drain() {
	for {
		select {
		case <-r.ups:
		case <-r.downs:
		default:
			return
		}
	}
}

// sinkSwitch builds a fresh datapath with two ports (traffic in, sink
// out).
func sinkSwitch(dpid uint64) *dataplane.Switch {
	sw := dataplane.NewSwitch(dataplane.Config{DPID: dpid})
	sw.AddPort(1, "in", 1000)
	sw.AddPort(2, "out", 1000).SetTx(func([]byte) {})
	return sw
}

// e9Frame builds a UDP frame whose destination matches none of the ACL
// rules, so every injection is a table miss → packet-in while the
// channel is up (the "active traffic" the recovery runs under).
func e9Frame(i int) []byte {
	buf := packet.NewBuffer(64)
	buf.Append(22)
	src := packet.IPv4Addr{10, 9, byte(i >> 8), byte(i)}
	dst := packet.IPv4Addr{10, 10, 0, 1}
	udp := packet.UDP{SrcPort: uint16(7000 + i%512), DstPort: 53}
	udp.SerializeToWithChecksum(buf, src, dst)
	ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: src, Dst: dst}
	ip.SerializeTo(buf)
	eth := packet.Ethernet{
		Src:       packet.MACFromUint64(0x0A0900000000 | uint64(i&0xffff)),
		Dst:       packet.MACFromUint64(0x0A0A00000001),
		EtherType: packet.EtherTypeIPv4,
	}
	eth.SerializeTo(buf)
	return append([]byte(nil), buf.Bytes()...)
}

// e9Converged reports whether the switch's flow table holds exactly
// want rules, all stamped with the live session's epoch.
func e9Converged(sc *controller.SwitchConn, want int) bool {
	rep, err := sc.Stats(&zof.StatsRequest{
		Kind: zof.StatsFlow, TableID: 0xff, Match: zof.MatchAll(),
	}, time.Second)
	if err != nil || len(rep.Flows) != want {
		return false
	}
	for _, f := range rep.Flows {
		if controller.CookieEpoch(f.Cookie) != sc.Epoch() {
			return false
		}
	}
	return true
}

// e9WaitConverged polls e9Converged until it holds or the deadline
// passes, returning the elapsed time and whether it converged.
func e9WaitConverged(ctl *controller.Controller, want int, since time.Time, deadline time.Duration) (time.Duration, bool) {
	end := time.Now().Add(deadline)
	for time.Now().Before(end) {
		if sc, ok := ctl.Switch(1); ok && e9Converged(sc, want) {
			return time.Since(since), true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return time.Since(since), false
}

func e9WaitUp(rec *e9Recorder, timeout time.Duration) (controller.SwitchUp, bool) {
	select {
	case ev := <-rec.ups:
		return ev, true
	case <-time.After(timeout):
		return controller.SwitchUp{}, false
	}
}

func e9WaitDown(rec *e9Recorder, timeout time.Duration) bool {
	select {
	case <-rec.downs:
		return true
	case <-time.After(timeout):
		return false
	}
}

// e9Point runs one configuration through the full lifecycle.
func e9Point(pi time.Duration, misses int, backoff time.Duration, rules int) (E9Point, error) {
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
	pt := E9Point{
		MissBudget:    misses,
		BackoffMS:     ms(backoff),
		DetectBoundMS: ms(pi * time.Duration(misses)),
	}
	// ProbeTimeout strictly below the interval makes the detection bound
	// hold with margin: the fatal streak's last probe times out before
	// the tick that would start probe budget+1, so eviction lands at
	// interval×(budget-1) + timeout < interval×budget.
	ctl, err := controller.New(controller.Config{
		ProbeInterval: pi,
		ProbeTimeout:  pi * 4 / 5,
		ProbeMisses:   misses,
	})
	if err != nil {
		return pt, err
	}
	defer ctl.Close()
	acl := apps.NewACL()
	rec := newE9Recorder()
	ctl.Use(acl) // before the recorder: an observed SwitchUp implies ACL reinstalled
	ctl.Use(rec)

	proxy, err := netem.NewControlProxy(ctl.Addr())
	if err != nil {
		return pt, err
	}
	defer proxy.Close()

	var target atomic.Pointer[dataplane.Switch]
	target.Store(sinkSwitch(1))
	sess := dataplane.StartSession(target.Load(), dataplane.SessionConfig{
		Addr:       proxy.Addr(),
		MinBackoff: backoff,
		Seed:       1,
	})
	defer sess.Close()

	if _, ok := e9WaitUp(rec, 5*time.Second); !ok {
		return pt, fmt.Errorf("initial SwitchUp not observed")
	}
	ids := make([]uint64, 0, rules)
	for i := 0; i < rules; i++ {
		m := zof.MatchAll()
		m.Wildcards &^= zof.WEthDst
		m.EthDst = packet.MACFromUint64(0x0A0000000000 | uint64(i))
		ids = append(ids, acl.Deny(ctl, m))
	}
	if _, ok := e9WaitConverged(ctl, rules, time.Now(), 5*time.Second); !ok {
		return pt, fmt.Errorf("initial rule install did not converge")
	}

	// Active traffic for the whole lifecycle: misses → packet-ins while
	// the channel is up, plain forwarding-path load while it is not.
	stopTraffic := make(chan struct{})
	trafficDone := make(chan struct{})
	go func() {
		defer close(trafficDone)
		for i := 0; ; i++ {
			select {
			case <-stopTraffic:
				return
			default:
			}
			target.Load().HandleFrame(1, e9Frame(i))
			time.Sleep(500 * time.Microsecond)
		}
	}()
	defer func() { close(stopTraffic); <-trafficDone }()

	// Phase 1 — detection: blackhole the control channel (bytes silently
	// discarded, nothing closed: a half-open session) and wait for the
	// liveness prober to evict.
	rec.drain()
	t0 := time.Now()
	proxy.Blackhole(true)
	if !e9WaitDown(rec, pi*time.Duration(misses+4)+2*time.Second) {
		return pt, fmt.Errorf("liveness eviction not observed")
	}
	pt.DetectWallMS = ms(time.Since(t0))
	det, _ := ctl.Metrics().Value("controller.liveness.last_detection_ns")
	pt.DetectMS = ms(time.Duration(det))

	// While partitioned, retire a quarter of the rules. The switch still
	// holds them; only post-reconnect reconciliation can flush them.
	retired := len(ids) / 4
	for _, id := range ids[:retired] {
		acl.Allow(ctl, id)
	}
	want := rules - retired

	// Phase 2 — heal: stop discarding and sever the leaked half-open
	// connection so the session manager redials through the proxy.
	rec.drain()
	proxy.Blackhole(false)
	t1 := time.Now()
	proxy.DropConnections()
	up, ok := e9WaitUp(rec, 10*time.Second)
	if !ok {
		return pt, fmt.Errorf("reconnect SwitchUp not observed")
	}
	if !up.Reconnect {
		return pt, fmt.Errorf("reconnect SwitchUp lacked Reconnect flag")
	}
	pt.ReconnectMS = ms(time.Since(t1))
	flap, ok := e9WaitConverged(ctl, want, t1, 10*time.Second)
	if !ok {
		return pt, fmt.Errorf("flow state did not converge after flap")
	}
	pt.FlapConvergeMS = ms(flap)
	stale, _ := ctl.Metrics().Value("controller.liveness.stale_flows")
	pt.StaleFlushed = uint64(stale)

	// Phase 3 — crash-restart: kill the session and the switch, bring up
	// a new datapath with the same DPID and an empty table, and measure
	// convergence from nothing, still under traffic.
	rec.drain()
	sess.Close()
	if !e9WaitDown(rec, 10*time.Second) {
		return pt, fmt.Errorf("SwitchDown after crash not observed")
	}
	target.Store(sinkSwitch(1))
	t2 := time.Now()
	sess2 := dataplane.StartSession(target.Load(), dataplane.SessionConfig{
		Addr:       proxy.Addr(),
		MinBackoff: backoff,
		Seed:       2,
	})
	defer sess2.Close()
	if _, ok := e9WaitUp(rec, 10*time.Second); !ok {
		return pt, fmt.Errorf("post-restart SwitchUp not observed")
	}
	crash, ok := e9WaitConverged(ctl, want, t2, 10*time.Second)
	if !ok {
		return pt, fmt.Errorf("flow state did not converge after restart")
	}
	pt.CrashConvergeMS = ms(crash)
	pt.Converged = true
	return pt, nil
}

// E9FaultRecovery sweeps liveness miss budgets and reconnect backoffs
// through the blackhole → heal → crash-restart lifecycle, reporting
// detection latency against its interval × budget bound, reconnect
// time, and flow-state convergence time (DESIGN.md "Failure model and
// reconnect contract").
func E9FaultRecovery(cfg E9Config) (*Table, *E9Result, error) {
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 25 * time.Millisecond
	}
	if len(cfg.MissBudgets) == 0 {
		cfg.MissBudgets = []int{1, 2, 3}
	}
	if len(cfg.Backoffs) == 0 {
		cfg.Backoffs = []time.Duration{10 * time.Millisecond, 50 * time.Millisecond}
	}
	if cfg.Rules <= 0 {
		cfg.Rules = 16
	}
	res := &E9Result{
		ProbeIntervalMS: float64(cfg.ProbeInterval.Nanoseconds()) / 1e6,
		Rules:           cfg.Rules,
	}
	tbl := &Table{
		ID:     "E9",
		Title:  "control-channel fault recovery: detection, reconnect, convergence",
		Header: []string{"misses", "backoff", "detect (bound)", "wall", "reconnect", "flap conv", "crash conv", "stale", "ok"},
		Notes: []string{
			fmt.Sprintf("probe interval %v; %d ACL rules as reconcilable state; 1/4 retired mid-partition", cfg.ProbeInterval, cfg.Rules),
			"detect = first missed probe → eviction, bound = interval × misses; wall adds the wait for the next probe tick",
			"flap keeps the flow table populated (stale epochs flushed); crash restarts with an empty table under traffic",
		},
	}
	for _, mb := range cfg.MissBudgets {
		for _, bo := range cfg.Backoffs {
			pt, err := e9Point(cfg.ProbeInterval, mb, bo, cfg.Rules)
			if err != nil {
				return nil, nil, fmt.Errorf("E9 misses=%d backoff=%v: %w", mb, bo, err)
			}
			res.Points = append(res.Points, pt)
			tbl.AddRow(
				fmt.Sprintf("%d", pt.MissBudget),
				fmt.Sprintf("%.0fms", pt.BackoffMS),
				fmt.Sprintf("%.1fms (%.0fms)", pt.DetectMS, pt.DetectBoundMS),
				fmt.Sprintf("%.1fms", pt.DetectWallMS),
				fmt.Sprintf("%.1fms", pt.ReconnectMS),
				fmt.Sprintf("%.1fms", pt.FlapConvergeMS),
				fmt.Sprintf("%.1fms", pt.CrashConvergeMS),
				fmt.Sprintf("%d", pt.StaleFlushed),
				fmt.Sprintf("%v", pt.Converged),
			)
		}
	}
	return tbl, res, nil
}
