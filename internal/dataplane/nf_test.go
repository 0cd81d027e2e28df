package dataplane

import (
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/nf"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/zof"
)

var natPub = packet.IPv4Addr{203, 0, 113, 1}

// countStage records how the datapath invokes it.
type countStage struct {
	name   string
	drop   bool
	procs  atomic.Uint64 // scalar Process calls
	seen   atomic.Uint64 // packets, either path
	bursts atomic.Uint64

	mu   sync.Mutex
	vecs []int // ProcessBurst vector sizes, in order
}

func (c *countStage) Name() string { return c.name }
func (c *countStage) Process(p *nf.Packet) nf.Verdict {
	c.procs.Add(1)
	c.seen.Add(1)
	if c.drop {
		return nf.VerdictDrop
	}
	return nf.VerdictContinue
}
func (c *countStage) ProcessBurst(ps []*nf.Packet) {
	c.bursts.Add(1)
	c.seen.Add(uint64(len(ps)))
	c.mu.Lock()
	c.vecs = append(c.vecs, len(ps))
	c.mu.Unlock()
	for _, p := range ps {
		p.Verdict = nf.VerdictContinue
		if c.drop {
			p.Verdict = nf.VerdictDrop
		}
	}
}
func (c *countStage) StateSummary() nf.StateSummary {
	return nf.StateSummary{Counters: map[string]uint64{"procs": c.procs.Load()}}
}
func (c *countStage) vecSizes() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int(nil), c.vecs...)
}

// ctNatSwitch is the canonical NF chain: conntrack then NAT, steered
// by one rule that forwards out port 2.
func ctNatSwitch(t *testing.T, cfg Config) (*Switch, map[uint32]*capture, *nf.Conntrack, *nf.NAT) {
	t.Helper()
	sw, caps := testSwitch(t, cfg)
	ct := nf.NewConntrack(nf.ConntrackConfig{Idle: time.Minute})
	nat := nf.NewNAT(nf.NATConfig{CT: ct, PublicIP: natPub, PortLo: 20000, PortHi: 29999})
	if err := sw.RegisterStage(1, ct); err != nil {
		t.Fatal(err)
	}
	if err := sw.RegisterStage(2, nat); err != nil {
		t.Fatal(err)
	}
	addFlow(t, sw, zof.MatchAll(), 10, zof.NF(1), zof.NF(2), zof.Output(2))
	return sw, caps, ct, nat
}

func TestNFStageSteering(t *testing.T) {
	sw, caps, ct, nat := ctNatSwitch(t, Config{DropOnMiss: true})

	sw.HandleFrame(1, udpFrame(t, hostA, hostB, 4242, 80, "req"))
	if caps[2].count() != 1 {
		t.Fatalf("forwarded %d frames", caps[2].count())
	}
	var f packet.Frame
	if err := packet.Decode(caps[2].last(t), &f); err != nil {
		t.Fatal(err)
	}
	if f.IPv4.Src != natPub {
		t.Fatalf("egress src = %v, want %v (SNAT)", f.IPv4.Src, natPub)
	}
	if f.UDP.SrcPort < 20000 || f.UDP.SrcPort > 29999 {
		t.Fatalf("egress sport = %d, outside the NAT range", f.UDP.SrcPort)
	}
	if ct.Entries() != 1 || nat.Bindings() != 1 {
		t.Fatalf("state: entries=%d bindings=%d", ct.Entries(), nat.Bindings())
	}

	// Switch-level introspection sees both modules.
	sums := sw.StageSummaries()
	if len(sums) != 2 || sums[0].ID != 1 || sums[0].Module != "conntrack" ||
		sums[1].ID != 2 || sums[1].Module != "nat" {
		t.Fatalf("summaries = %+v", sums)
	}
	if sums[0].Summary.Entries != 1 {
		t.Errorf("conntrack summary = %+v", sums[0].Summary)
	}
	conns := sw.ConntrackEntries()
	if len(conns) != 1 || conns[0].NAT == "" {
		t.Fatalf("conntrack dump = %+v", conns)
	}
}

func TestNFValidateRejectsUnknownStage(t *testing.T) {
	sw, _ := testSwitch(t, Config{DropOnMiss: true})
	var gotErr *zof.Error
	sw.Process(&zof.FlowMod{Command: zof.FlowAdd, Match: zof.MatchAll(), Priority: 1,
		BufferID: zof.NoBuffer, Actions: []zof.Action{zof.NF(9), zof.Output(2)}},
		1, func(rep zof.Message, _ uint32) {
			if e, ok := rep.(*zof.Error); ok {
				gotErr = e
			}
		})
	if gotErr == nil || gotErr.Code != zof.ErrCodeBadAction {
		t.Fatalf("flow referencing unregistered stage accepted: %+v", gotErr)
	}
	if sw.FlowCount() != 0 {
		t.Fatalf("flows = %d", sw.FlowCount())
	}
}

func TestNFRegisterRefusesDuplicateAndNil(t *testing.T) {
	sw, _ := testSwitch(t, Config{DropOnMiss: true})
	st := &countStage{name: "x"}
	if err := sw.RegisterStage(1, st); err != nil {
		t.Fatal(err)
	}
	if err := sw.RegisterStage(1, st); err == nil {
		t.Fatal("duplicate id accepted")
	}
	if err := sw.RegisterStage(2, nil); err == nil {
		t.Fatal("nil stage accepted")
	}
	if got, ok := sw.Stage(1); !ok || got != nf.Stage(st) {
		t.Fatalf("Stage(1) = %v, %v", got, ok)
	}
}

func TestNFUnregisterFailsOpen(t *testing.T) {
	sw, caps := testSwitch(t, Config{DropOnMiss: true})
	st := &countStage{name: "probe"}
	if err := sw.RegisterStage(1, st); err != nil {
		t.Fatal(err)
	}
	addFlow(t, sw, zof.MatchAll(), 10, zof.NF(1), zof.Output(2))
	frame := udpFrame(t, hostA, hostB, 1, 2, "x")

	sw.HandleFrame(1, frame)
	if st.seen.Load() != 1 || caps[2].count() != 1 {
		t.Fatalf("live: seen=%d tx=%d", st.seen.Load(), caps[2].count())
	}

	// Unregistering does not cascade to the steering rule: the flow
	// stays (controller-owned intent) and becomes a pass-through.
	if !sw.UnregisterStage(1) {
		t.Fatal("unregister failed")
	}
	if sw.FlowCount() != 1 {
		t.Fatalf("flows after unregister = %d", sw.FlowCount())
	}
	sw.HandleFrame(1, frame)
	if st.seen.Load() != 1 {
		t.Error("unregistered stage still invoked")
	}
	if caps[2].count() != 2 {
		t.Fatalf("fail-open did not forward: tx=%d", caps[2].count())
	}
	// The trace names the hole.
	tr := sw.Trace(1, frame)
	if len(tr.Stages) != 1 || !tr.Stages[0].Missing || tr.Stages[0].ID != 1 {
		t.Fatalf("trace stages = %+v", tr.Stages)
	}
}

func TestNFDropConsumesFrame(t *testing.T) {
	sw, caps := testSwitch(t, Config{DropOnMiss: true})
	if err := sw.RegisterStage(1, &countStage{name: "fw", drop: true}); err != nil {
		t.Fatal(err)
	}
	addFlow(t, sw, zof.MatchAll(), 10, zof.NF(1), zof.Output(2))
	frame := udpFrame(t, hostA, hostB, 1, 2, "deny")

	sw.HandleFrame(1, frame)
	if caps[2].count() != 0 {
		t.Fatal("dropped frame was forwarded")
	}
	tr := sw.Trace(1, frame)
	if tr.Verdict != "dropped: nf fw" {
		t.Errorf("verdict = %q", tr.Verdict)
	}
	if len(tr.Stages) != 1 || tr.Stages[0].Verdict != "drop" {
		t.Errorf("stages = %+v", tr.Stages)
	}
}

func TestNFStageBurstBatching(t *testing.T) {
	sw, caps := testSwitch(t, Config{DropOnMiss: true})
	st := &countStage{name: "vec"}
	if err := sw.RegisterStage(1, st); err != nil {
		t.Fatal(err)
	}
	addFlow(t, sw, zof.MatchAll(), 10, zof.NF(1), zof.Output(2))

	// One microflow, one burst: a single ProcessBurst covers the vector.
	frA := udpFrame(t, hostA, hostB, 100, 200, "a")
	burst := make([][]byte, 32)
	for i := range burst {
		burst[i] = frA
	}
	sw.HandleBurst(1, burst)
	if got := st.vecSizes(); !reflect.DeepEqual(got, []int{32}) {
		t.Fatalf("vector sizes = %v, want [32]", got)
	}
	if st.procs.Load() != 0 {
		t.Errorf("scalar Process called %d times on the burst path", st.procs.Load())
	}
	if caps[2].count() != 32 {
		t.Fatalf("tx = %d", caps[2].count())
	}

	// Two microflows in one burst: the engine batches per run.
	frB := udpFrame(t, hostA, hostB, 101, 200, "b")
	mixed := append(append([][]byte{}, burst[:16]...), frB, frB, frB, frB)
	sw.HandleBurst(1, mixed)
	if got := st.vecSizes(); !reflect.DeepEqual(got, []int{32, 16, 4}) {
		t.Fatalf("vector sizes = %v, want [32 16 4]", got)
	}
}

func TestNFStageRegisterUnregisterDuringTraffic(t *testing.T) {
	sw, _ := testSwitch(t, Config{DropOnMiss: true, Clock: time.Now})
	ct := nf.NewConntrack(nf.ConntrackConfig{Idle: time.Minute})
	if err := sw.RegisterStage(1, ct); err != nil {
		t.Fatal(err)
	}
	addFlow(t, sw, zof.MatchAll(), 10, zof.NF(1), zof.Output(2))

	frames := make([][]byte, 16)
	for i := range frames {
		frames[i] = udpFrame(t, hostA, hostB, uint16(1000+i), 80, "hammer")
	}
	reg := obs.NewRegistry()
	sw.RegisterMetrics(reg, "dataplane.1")
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				switch w {
				case 0:
					sw.HandleFrame(1, frames[i%len(frames)])
				case 1:
					sw.HandleBurst(1, frames[:8])
				default:
					reg.Snapshot() // NF gauges come and go with the churn
				}
			}
		}(w)
	}
	// Churn the stage map under live traffic: the RCU snapshot means
	// in-flight frames see either the old or new map, never a torn one.
	sw.HandleFrame(1, frames[0])
	probe := &countStage{name: "churn"}
	for i := 0; i < 200; i++ {
		if err := sw.RegisterStage(2, probe); err != nil {
			t.Error(err)
			break
		}
		sw.UnregisterStage(2)
	}
	close(stop)
	wg.Wait()
	if ct.Entries() == 0 {
		t.Error("no traffic was tracked during the churn")
	}
}

func TestNFConntrackExpiryDuringBursts(t *testing.T) {
	sw, caps := testSwitch(t, Config{DropOnMiss: true, Clock: time.Now})
	ct := nf.NewConntrack(nf.ConntrackConfig{Idle: time.Millisecond})
	if err := sw.RegisterStage(1, ct); err != nil {
		t.Fatal(err)
	}
	addFlow(t, sw, zof.MatchAll(), 10, zof.NF(1), zof.Output(2))

	frames := make([][]byte, 64)
	for i := range frames {
		frames[i] = udpFrame(t, hostA, hostB, uint16(2000+i), 80, "churn")
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // sweeps race the bursts that recreate the entries
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				sw.Tick(time.Now())
				time.Sleep(200 * time.Microsecond)
			}
		}
	}()
	for i := 0; i < 300; i++ {
		sw.HandleBurst(1, frames[(i%8)*8:(i%8)*8+8])
	}
	close(stop)
	wg.Wait()

	s := ct.StateSummary()
	if s.Counters["created"] == 0 {
		t.Fatal("no entries created")
	}
	if caps[2].count() != 300*8 {
		t.Fatalf("tx = %d, want %d", caps[2].count(), 300*8)
	}
	// With traffic stopped, the table drains.
	time.Sleep(5 * time.Millisecond)
	sw.Tick(time.Now())
	if ct.Entries() != 0 {
		t.Fatalf("entries after drain = %d", ct.Entries())
	}
}

// TestNFTraceRecordedNotExecuted pins the explain-mode contract for
// stages: a trace walks conntrack and NAT, reports what they would do,
// and leaves every byte of dynamic state untouched.
func TestNFTraceRecordedNotExecuted(t *testing.T) {
	sw, caps, ct, nat := ctNatSwitch(t, Config{DropOnMiss: true})
	frame := udpFrame(t, hostA, hostB, 7777, 443, "quiet")

	// A trace of a *fresh* flow predicts NAT's drop (no conntrack entry
	// exists, and explain mode will not create one) — that asymmetry is
	// the recorded-not-executed contract, so establish the flow first.
	fresh := sw.Trace(1, frame)
	if fresh.Verdict != "dropped: nf nat" {
		t.Fatalf("fresh-flow trace verdict = %q", fresh.Verdict)
	}
	if ct.Entries() != 0 || nat.Bindings() != 0 {
		t.Fatalf("fresh-flow trace created state: entries=%d bindings=%d",
			ct.Entries(), nat.Bindings())
	}
	sw.HandleFrame(1, frame)

	// On the established flow, trace and live execution agree.
	tr := assertParity(t, sw, caps, 1, frame)
	if len(tr.Stages) != 2 {
		t.Fatalf("stages = %+v", tr.Stages)
	}
	if tr.Stages[0].Module != "conntrack" || tr.Stages[0].Note == "" {
		t.Errorf("conntrack record = %+v", tr.Stages[0])
	}
	if ct.Entries() != 1 || nat.Bindings() != 1 {
		t.Fatalf("state after live frames: entries=%d bindings=%d", ct.Entries(), nat.Bindings())
	}

	// Trace-only passes move nothing at all, ghost flows included.
	ctMid, natMid := ct.StateSummary(), nat.StateSummary()
	for i := 0; i < 10; i++ {
		tr = sw.Trace(1, udpFrame(t, hostA, hostB, uint16(8000+i), 443, "ghost"))
		if len(tr.Stages) != 2 {
			t.Fatalf("trace %d stages = %+v", i, tr.Stages)
		}
	}
	if !reflect.DeepEqual(ct.StateSummary(), ctMid) || !reflect.DeepEqual(nat.StateSummary(), natMid) {
		t.Errorf("trace moved NF state:\nct  %+v -> %+v\nnat %+v -> %+v",
			ctMid, ct.StateSummary(), natMid, nat.StateSummary())
	}
}

func TestNFStageMetricsRegistered(t *testing.T) {
	sw, _, _, _ := ctNatSwitch(t, Config{DropOnMiss: true})
	reg := obs.NewRegistry()
	sw.RegisterMetrics(reg, "dataplane.42")
	for _, name := range []string{
		"dataplane.42.nf.conntrack.entries",
		"dataplane.42.nf.nat.entries",
	} {
		if _, ok := reg.Value(name); !ok {
			t.Errorf("metric %s not registered", name)
		}
	}
	sw.HandleFrame(1, udpFrame(t, hostA, hostB, 1, 2, "m"))
	if v, _ := reg.Value("dataplane.42.nf.conntrack.entries"); v != 1 {
		t.Errorf("conntrack entries gauge = %d", v)
	}
}

// A stage registered after RegisterMetrics — the order core.Start and
// the E15 overlay use — still gets its entries gauge.
func TestNFStageMetricsRegisteredAfterMetrics(t *testing.T) {
	sw, _ := testSwitch(t, Config{DropOnMiss: true})
	reg := obs.NewRegistry()
	sw.RegisterMetrics(reg, "dataplane.42")
	if err := sw.RegisterStage(1, nf.NewConntrack(nf.ConntrackConfig{Idle: time.Minute})); err != nil {
		t.Fatal(err)
	}
	addFlow(t, sw, zof.MatchAll(), 10, zof.NF(1), zof.Output(2))
	sw.HandleFrame(1, udpFrame(t, hostA, hostB, 1, 2, "m"))
	if v, ok := reg.Value("dataplane.42.nf.conntrack.entries"); !ok || v != 1 {
		t.Errorf("conntrack entries gauge = %d (registered %v), want 1", v, ok)
	}
}

// Unregistering a stage removes its gauge and leaves the others.
func TestNFStageMetricsUnregistered(t *testing.T) {
	sw, _, _, _ := ctNatSwitch(t, Config{DropOnMiss: true})
	reg := obs.NewRegistry()
	sw.RegisterMetrics(reg, "dataplane.42")
	if !sw.UnregisterStage(2) {
		t.Fatal("nat stage not registered")
	}
	if _, ok := reg.Value("dataplane.42.nf.nat.entries"); ok {
		t.Error("nat gauge outlived its stage")
	}
	if _, ok := reg.Value("dataplane.42.nf.conntrack.entries"); !ok {
		t.Error("conntrack gauge removed with the nat stage")
	}
}

func TestNFExplainNoteInTraceJSON(t *testing.T) {
	sw, _, _, _ := ctNatSwitch(t, Config{DropOnMiss: true})
	sw.HandleFrame(1, udpFrame(t, hostA, hostB, 4000, 80, "live"))
	tr := sw.Trace(1, udpFrame(t, hostA, hostB, 4000, 80, "live"))
	// The established entry is visible to the trace, read-only.
	if len(tr.Stages) != 2 || tr.Stages[0].Note == "" {
		t.Fatalf("stages = %+v", tr.Stages)
	}
	want := fmt.Sprintf("snat %s:4000", hostA)
	if got := tr.Stages[1].Note; len(got) < len(want) || got[:len(want)] != want {
		t.Errorf("nat note = %q, want prefix %q", got, want)
	}
}
