package main

import (
	"encoding/binary"

	"repro/internal/packet"
)

// Offsets into an untagged Ethernet/IPv4/UDP frame as built by
// udpFrame.
const (
	offIPSrc   = 14 + 12
	offIPDst   = 14 + 16
	offUDP     = 14 + 20
	offPayload = 14 + 20 + 8
	minFrame   = 64
)

// endpoint is one end of a UDP flow.
type endpoint struct {
	ip   packet.IPv4Addr
	port uint16
}

func macOf(ip packet.IPv4Addr) packet.MAC {
	return packet.MACFromUint64(0x020000000000 | uint64(ip.Uint32()))
}

func ipOf(v uint32) packet.IPv4Addr {
	return packet.IPv4Addr{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// udpFrame builds a size-byte frame from src to dst whose payload
// starts with the source endpoint, so a rewritten or reflected copy can
// be checked against the flow it came from.
func udpFrame(src, dst endpoint, size int) []byte {
	b := packet.NewBuffer(64)
	pl := b.Append(size - offPayload)
	for i := range pl {
		pl[i] = 0
	}
	putEndpoint(pl, src)
	udp := packet.UDP{SrcPort: src.port, DstPort: dst.port}
	udp.SerializeTo(b)
	ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: src.ip, Dst: dst.ip}
	ip.SerializeTo(b)
	eth := packet.Ethernet{Dst: macOf(dst.ip), Src: macOf(src.ip), EtherType: packet.EtherTypeIPv4}
	eth.SerializeTo(b)
	return append([]byte(nil), b.Bytes()...)
}

func putEndpoint(b []byte, e endpoint) {
	copy(b[0:4], e.ip[:])
	binary.BigEndian.PutUint16(b[4:6], e.port)
}

func getEndpoint(b []byte) endpoint {
	var e endpoint
	copy(e.ip[:], b[0:4])
	e.port = binary.BigEndian.Uint16(b[4:6])
	return e
}

// setSource rewrites a udpFrame's source endpoint in place (header,
// payload copy and IPv4 checksum); the source MAC is left alone.
func setSource(f []byte, src endpoint) {
	copy(f[offIPSrc:offIPSrc+4], src.ip[:])
	binary.BigEndian.PutUint16(f[offUDP:offUDP+2], src.port)
	putEndpoint(f[offPayload:], src)
	ip := f[14:34]
	ip[10], ip[11] = 0, 0
	binary.BigEndian.PutUint16(ip[10:12], packet.Checksum(ip, 0))
}

// isFresh reports whether the IPv4 address at ip is a freshSource.
func isFresh(ip []byte) bool { return ip[0] == 11 }

// freshSource is the k-th never-used source endpoint, from 11.0.0.0/8
// so it collides with no generated microflow.
func freshSource(k uint64) endpoint {
	return endpoint{ipOf(11<<24 | uint32(k/50000)), uint16(10000 + k%50000)}
}
