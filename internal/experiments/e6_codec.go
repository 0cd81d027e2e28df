package experiments

import (
	"fmt"
	"testing"

	"repro/internal/packet"
)

// buildUDPFrame builds a frame of roughly the requested size.
func buildUDPFrame(size int) []byte {
	payload := max(size-packet.EthernetHeaderLen-packet.IPv4MinHeaderLen-packet.UDPHeaderLen, 0)
	b := packet.NewBuffer(64)
	b.Append(payload)
	udp := packet.UDP{SrcPort: 5353, DstPort: 53}
	udp.SerializeToWithChecksum(b, packet.IPv4Addr{10, 0, 0, 1}, packet.IPv4Addr{10, 0, 0, 2})
	ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP,
		Src: packet.IPv4Addr{10, 0, 0, 1}, Dst: packet.IPv4Addr{10, 0, 0, 2}}
	ip.SerializeTo(b)
	eth := packet.Ethernet{Dst: packet.MAC{2, 0, 0, 0, 0, 2},
		Src: packet.MAC{2, 0, 0, 0, 0, 1}, EtherType: packet.EtherTypeIPv4}
	eth.SerializeTo(b)
	return append([]byte(nil), b.Bytes()...)
}

// codecOp is one of E6's measured loops over a wire frame. E6Codec
// runs it through testing.Benchmark, BenchmarkE6Codec through b.Run.
type codecOp struct {
	name  string // sub-benchmark name
	label string // E6 "op" column
	run   func(b *testing.B)
}

// codecOps returns the decode, decode+flowkey and full-stack serialize
// loops for a frame of the given size.
func codecOps(size int) []codecOp {
	wire := buildUDPFrame(size)
	payload := max(size-42, 0)
	return []codecOp{
		{"decode", "decode", func(b *testing.B) {
			var f packet.Frame
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := packet.Decode(wire, &f); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"flowkey", "decode+flowkey", func(b *testing.B) {
			var f packet.Frame
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := packet.Decode(wire, &f); err != nil {
					b.Fatal(err)
				}
				k := packet.ExtractFlowKey(&f)
				_ = k.FastHash()
			}
		}},
		{"serialize", "serialize", func(b *testing.B) {
			buf := packet.NewBuffer(64)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				buf.Append(payload)
				udp := packet.UDP{SrcPort: 1, DstPort: 2}
				udp.SerializeTo(buf)
				ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP}
				ip.SerializeTo(buf)
				eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
				eth.SerializeTo(buf)
			}
		}},
	}
}

// E6Codec measures the packet substrate: decode, decode+flow-key, and
// full-stack serialize, per frame size (default 64, 512 and 1500
// bytes), with allocations per op. Shape: zero allocations on the
// decode paths; decode throughput in the millions per second per core
// for small frames.
func E6Codec(sizes ...int) *Table {
	if len(sizes) == 0 {
		sizes = []int{64, 512, 1500}
	}
	t := &Table{
		ID:     "E6",
		Title:  "packet codec throughput",
		Header: []string{"frame", "op", "ns/op", "allocs/op", "Mops/s"},
		Notes:  []string{"expected shape: 0 allocs/op on decode; small-frame decode > 10 Mops/s"},
	}
	for _, size := range sizes {
		label := fmt.Sprintf("%dB", size)
		for _, op := range codecOps(size) {
			addBenchRow(t, label, op.label, testing.Benchmark(op.run))
		}
	}
	return t
}

func addBenchRow(t *Table, frame, op string, r testing.BenchmarkResult) {
	ns := float64(r.T.Nanoseconds()) / float64(r.N)
	mops := 0.0
	if ns > 0 {
		mops = 1000 / ns
	}
	t.AddRow(frame, op, f1(ns), fmt.Sprintf("%d", r.AllocsPerOp()), f2(mops))
}
