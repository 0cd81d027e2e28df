package dataplane

import (
	"fmt"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/zof"
)

// PacketTrace is the explain-mode record of one pipeline traversal —
// the software datapath's answer to `ovs-appctl ofproto/trace`. It
// names the rule matched in every table visited, the group decisions
// taken, and where the frame would have gone, without the frame ever
// leaving the switch or any counter moving.
type PacketTrace struct {
	DPID    uint64 `json:"dpid"`
	InPort  uint32 `json:"in_port"`
	Frame   string `json:"frame"`
	Verdict string `json:"verdict"`

	Steps     []TraceStep     `json:"steps"`
	Groups    []TraceGroup    `json:"groups,omitempty"`
	Outputs   []TraceOutput   `json:"outputs,omitempty"`
	PacketIns []TracePacketIn `json:"packet_ins,omitempty"`
	Stages    []TraceStage    `json:"nf,omitempty"`
}

// TraceStep is one table's decision: the rule matched (or the miss) and
// the actions that ran.
type TraceStep struct {
	Table    int      `json:"table"`
	Matched  bool     `json:"matched"`
	Priority uint16   `json:"priority,omitempty"`
	Cookie   uint64   `json:"cookie,omitempty"`
	Match    string   `json:"match,omitempty"`
	Actions  []string `json:"actions,omitempty"`
	Resubmit bool     `json:"resubmit,omitempty"`
}

// TraceGroup is one group action's selection decision.
type TraceGroup struct {
	ID      uint32 `json:"id"`
	Missing bool   `json:"missing,omitempty"` // action referenced an uninstalled group
	Type    string `json:"type,omitempty"`
	Buckets int    `json:"buckets,omitempty"` // installed bucket count
	Chosen  []int  `json:"chosen,omitempty"`  // indices of the buckets that executed
}

// TraceOutput is one port the frame would have been transmitted on.
type TraceOutput struct {
	Port    uint32 `json:"port"`
	Kind    string `json:"kind"` // "port", "flood", "all", "in_port"
	Down    bool   `json:"down,omitempty"`
	Missing bool   `json:"missing,omitempty"` // action named a nonexistent port
}

// TracePacketIn is one packet-in the traversal would have raised.
type TracePacketIn struct {
	Table  uint8  `json:"table"`
	Reason string `json:"reason"`
}

// TraceStage is one NF stage the traversal walked, in
// recorded-not-executed mode: the stage looked its state up and
// rewrote the trace's private copy, but created no entry, allocated no
// port, moved no counter. Note carries the stage's own explanation
// ("established orig tcp ...", "would-allocate ...").
type TraceStage struct {
	ID      uint32 `json:"id"`
	Module  string `json:"module,omitempty"`
	Verdict string `json:"verdict,omitempty"`
	Note    string `json:"note,omitempty"`
	Missing bool   `json:"missing,omitempty"` // action named an unregistered stage
}

// noteGroup records a group selection: which group, its semantics, and
// which bucket indices pick chose (the subslice aliases g.Buckets, so
// identity comparison recovers the indices).
func (tr *PacketTrace) noteGroup(g *GroupDesc, chosen []Bucket) {
	tg := TraceGroup{ID: g.ID, Type: g.Type.String(), Buckets: len(g.Buckets)}
	for i := range g.Buckets {
		for j := range chosen {
			if &g.Buckets[i] == &chosen[j] {
				tg.Chosen = append(tg.Chosen, i)
				break
			}
		}
	}
	tr.Groups = append(tr.Groups, tg)
}

// String names the group semantics for traces.
func (t GroupType) String() string {
	switch t {
	case GroupAll:
		return "all"
	case GroupSelect:
		return "select"
	case GroupFastFailover:
		return "fast_failover"
	}
	return fmt.Sprintf("unknown(%d)", uint8(t))
}

// reasonName names a packet-in reason for traces.
func reasonName(reason uint8) string {
	switch reason {
	case zof.ReasonNoMatch:
		return "no_match"
	case zof.ReasonAction:
		return "action"
	}
	return fmt.Sprintf("unknown(%d)", reason)
}

// frameSummary renders the decoded frame headers for the trace.
func frameSummary(f *packet.Frame) string {
	s := fmt.Sprintf("%s>%s type=0x%04x", f.Eth.Src, f.Eth.Dst, f.EtherType())
	switch {
	case f.Has(packet.LayerIPv4):
		s += fmt.Sprintf(" %s>%s proto=%d", f.IPv4.Src, f.IPv4.Dst, f.IPv4.Protocol)
	case f.Has(packet.LayerIPv6):
		s += fmt.Sprintf(" %s>%s proto=%d", f.IPv6.Src, f.IPv6.Dst, f.IPv6.NextHeader)
	case f.Has(packet.LayerARP):
		s += fmt.Sprintf(" arp %s>%s", f.ARP.SenderIP, f.ARP.TargetIP)
	}
	switch {
	case f.Has(packet.LayerTCP):
		s += fmt.Sprintf(" tcp :%d>:%d", f.TCP.SrcPort, f.TCP.DstPort)
	case f.Has(packet.LayerUDP):
		s += fmt.Sprintf(" udp :%d>:%d", f.UDP.SrcPort, f.UDP.DstPort)
	}
	return s
}

// Trace runs a frame through the match-action pipeline in explain mode
// and reports every decision instead of acting on any of them: the
// exact machinery of the live path executes — same table lookups (via
// the counter-free Peek), same header rewrites on a private copy, same
// group hashing and failover selection — but outputs and packet-ins
// are recorded, not delivered, and no flow, table, port or cache
// statistic moves. The traversal runs against the current published
// pipeline snapshot, exactly as a concurrent HandleFrame would.
//
// The one live structure it bypasses is the microflow cache: the cache
// is decision-transparent (a hit returns what the table lookup would
// have), so skipping it keeps the explanation identical while leaving
// hit/miss statistics untouched.
func (s *Switch) Trace(inPort uint32, data []byte) *PacketTrace {
	tr := &PacketTrace{DPID: s.cfg.DPID, InPort: inPort}
	pl := s.pl.Load()
	p := pl.ports[inPort]
	if p == nil {
		tr.Verdict = "dropped: no such port"
		return tr
	}
	if !p.Up() {
		tr.Verdict = "dropped: in port down"
		return tr
	}
	x := getExec(s, pl)
	x.trace = tr
	x.now = s.cfg.Clock()
	if err := packet.Decode(data, &x.frame); err != nil {
		x.release()
		tr.Verdict = "dropped: malformed frame"
		return tr
	}
	tr.Frame = frameSummary(&x.frame)

	// The loop mirrors run(): rewrites landed by apply are visible to
	// the next table's match, exactly like the live resubmit path.
	tableID := 0
	entry := pl.tables[0].Peek(&x.frame, inPort)
	for {
		if entry == nil {
			tr.Steps = append(tr.Steps, TraceStep{Table: tableID})
			before := len(tr.PacketIns)
			x.miss(inPort, data, uint8(tableID))
			if len(tr.PacketIns) > before {
				tr.Verdict = "packet-in: table miss"
			} else {
				tr.Verdict = "dropped: table miss"
			}
			break
		}
		step := TraceStep{
			Table:    tableID,
			Matched:  true,
			Priority: entry.Priority,
			Cookie:   entry.Cookie,
			Match:    entry.Match.String(),
		}
		for _, a := range entry.Actions {
			step.Actions = append(step.Actions, a.String())
		}
		var resubmit bool
		data, resubmit = x.apply(inPort, data, entry.Actions, 0)
		step.Resubmit = resubmit
		tr.Steps = append(tr.Steps, step)
		if !resubmit {
			break
		}
		tableID++
		if tableID >= len(pl.tables) {
			tr.Verdict = "dropped: resubmit past last table"
			break
		}
		entry = pl.tables[tableID].Peek(&x.frame, inPort)
	}
	x.release()

	if tr.Verdict == "" {
		delivered := 0
		for _, o := range tr.Outputs {
			if !o.Down && !o.Missing {
				delivered++
			}
		}
		switch {
		case delivered > 0:
			tr.Verdict = fmt.Sprintf("forwarded: %d port(s)", delivered)
		case len(tr.PacketIns) > 0:
			tr.Verdict = "packet-in"
		case len(tr.Outputs) > 0:
			tr.Verdict = "dropped: all output ports down"
		default:
			tr.Verdict = "dropped: no output action"
		}
	}
	return tr
}

// RegisterMetrics publishes the switch's counters into r under prefix
// (e.g. "dataplane.3"), as callback gauges reading the live atomics:
// packet-in totals, microflow-cache effectiveness, per-table
// lookup/match/occupancy figures named
// <prefix>.flowtable.<table>.<stat>, and <prefix>.nf.<module>.entries
// for every NF stage, including stages registered later; a gauge goes
// away with the last stage of its module.
func (s *Switch) RegisterMetrics(r *obs.Registry, prefix string) {
	sc := r.Scope(prefix)
	sc.RegisterFunc("packet_ins", func() int64 { return int64(s.PacketIns.Load()) })
	sc.RegisterFunc("flows", func() int64 { return int64(s.FlowCount()) })
	sc.RegisterFunc("microcache.hits", func() int64 { return int64(s.cache.Hits()) })
	sc.RegisterFunc("microcache.misses", func() int64 { return int64(s.cache.Misses()) })
	sc.RegisterFunc("microcache.flows", func() int64 { return int64(s.cache.Len()) })
	sc.RegisterHistogram("burst.sizes", s.burstSizes)
	for i, t := range s.pl.Load().tables {
		t := t
		ts := sc.Scope(fmt.Sprintf("flowtable.%d", i))
		ts.RegisterFunc("lookups", func() int64 { return int64(t.Lookups()) })
		ts.RegisterFunc("matches", func() int64 { return int64(t.Matches()) })
		ts.RegisterFunc("active", func() int64 { return int64(t.Len()) })
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.metricScope = &sc
	for _, st := range s.stages {
		s.syncStageGaugeLocked(st.Name())
	}
}

// syncStageGaugeLocked keeps nf.<module>.entries, in the scope
// RegisterMetrics recorded, in step with the registered stages: present
// while the module has a stage, reading the sum of its stages' entries
// in the live pipeline. Caller holds s.mu.
func (s *Switch) syncStageGaugeLocked(module string) {
	if s.metricScope == nil {
		return
	}
	for _, st := range s.stages {
		if st.Name() == module {
			s.metricScope.Scope("nf."+module).RegisterFunc("entries", func() int64 {
				var n int64
				for _, st := range s.pl.Load().stages {
					if st.Name() == module {
						n += int64(st.StateSummary().Entries)
					}
				}
				return n
			})
			return
		}
	}
	s.metricScope.Unregister("nf." + module + ".entries")
}
