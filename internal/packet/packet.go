// Package packet models network packets and flow keys for the IDS
// evaluation testbed. The model is deliberately self-contained (no
// real sockets): headers carry exactly the fields the paper's metrics and
// the detection engines consume — addresses, ports, protocol, TCP flags,
// sizes and payload bytes — plus ground-truth annotations used only by the
// measurement harness, never by detectors.
package packet

import (
	"fmt"
	"strconv"
	"time"
)

// Addr is an IPv4 address in host byte order.
type Addr uint32

// IPv4 builds an Addr from dotted-quad components.
func IPv4(a, b, c, d byte) Addr {
	return Addr(a)<<24 | Addr(b)<<16 | Addr(c)<<8 | Addr(d)
}

// String renders the address in dotted-quad form.
func (a Addr) String() string {
	var buf [len("255.255.255.255")]byte
	return string(a.AppendTo(buf[:0]))
}

// AppendTo appends the dotted-quad form to b, as netip.Addr.AppendTo
// does, so that text naming an address needs no fmt.
func (a Addr) AppendTo(b []byte) []byte {
	b = strconv.AppendUint(b, uint64(byte(a>>24)), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(byte(a>>16)), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(byte(a>>8)), 10)
	b = append(b, '.')
	return strconv.AppendUint(b, uint64(byte(a)), 10)
}

// Proto is an IP protocol number. Only the protocols the testbed generates
// are named; others pass through as raw numbers.
type Proto uint8

const (
	ProtoICMP Proto = 1
	ProtoTCP  Proto = 6
	ProtoUDP  Proto = 17
)

// String names the protocol.
func (p Proto) String() string {
	switch p {
	case ProtoICMP:
		return "ICMP"
	case ProtoTCP:
		return "TCP"
	case ProtoUDP:
		return "UDP"
	default:
		return fmt.Sprintf("proto(%d)", uint8(p))
	}
}

// TCPFlags is the TCP control-bit set.
type TCPFlags uint8

// TCP control bits, low bit first as on the wire.
const (
	FIN TCPFlags = 1 << iota
	SYN
	RST
	PSH
	ACK
	URG
)

// Has reports whether all bits in mask are set.
func (f TCPFlags) Has(mask TCPFlags) bool { return f&mask == mask }

// String renders the set flags in conventional order, or "." when empty.
func (f TCPFlags) String() string {
	if f == 0 {
		return "."
	}
	names := []struct {
		bit  TCPFlags
		name byte
	}{{SYN, 'S'}, {FIN, 'F'}, {RST, 'R'}, {PSH, 'P'}, {ACK, 'A'}, {URG, 'U'}}
	var out []byte
	for _, n := range names {
		if f.Has(n.bit) {
			out = append(out, n.name)
		}
	}
	return string(out)
}

// FlowKey identifies a unidirectional 5-tuple flow.
type FlowKey struct {
	Src, Dst         Addr
	SrcPort, DstPort uint16
	Proto            Proto
}

// Reverse returns the key of the opposite direction of the same
// conversation.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{
		Src: k.Dst, Dst: k.Src,
		SrcPort: k.DstPort, DstPort: k.SrcPort,
		Proto: k.Proto,
	}
}

// Canonical returns a direction-independent key for the conversation: the
// lexicographically smaller of k and k.Reverse(). Both directions of one
// TCP session canonicalize to the same value, which is what load balancers
// need to keep a session on one sensor (Section 2.2 of the paper).
func (k FlowKey) Canonical() FlowKey {
	r := k.Reverse()
	if k.less(r) {
		return k
	}
	return r
}

func (k FlowKey) less(o FlowKey) bool {
	if k.Src != o.Src {
		return k.Src < o.Src
	}
	if k.Dst != o.Dst {
		return k.Dst < o.Dst
	}
	if k.SrcPort != o.SrcPort {
		return k.SrcPort < o.SrcPort
	}
	if k.DstPort != o.DstPort {
		return k.DstPort < o.DstPort
	}
	return k.Proto < o.Proto
}

// String renders the flow as "src:sport > dst:dport/proto".
func (k FlowKey) String() string {
	return fmt.Sprintf("%v:%d > %v:%d/%v", k.Src, k.SrcPort, k.Dst, k.DstPort, k.Proto)
}

// Hash returns a stable 64-bit hash of the key, suitable for flow-hash load
// balancing. Both directions of a conversation hash identically because the
// key is canonicalized first.
func (k FlowKey) Hash() uint64 {
	c := k.Canonical()
	const prime64 = 1099511628211
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= prime64
	}
	mix(uint64(c.Src))
	mix(uint64(c.Dst))
	mix(uint64(c.SrcPort)<<16 | uint64(c.DstPort))
	mix(uint64(c.Proto))
	return h
}

// Label carries the ground truth attached by the workload generators. The
// harness uses it to compute the paper's observed false-positive and
// false-negative ratios (Figure 3); detectors must never read it.
type Label struct {
	// Malicious marks traffic generated by an attack scenario.
	Malicious bool
	// AttackID names the attack instance the packet belongs to, so that
	// per-attack detection (rather than per-packet) can be scored.
	AttackID string
	// Technique names the attack class, e.g. "portscan" or "synflood".
	Technique string
}

// Packet is one simulated datagram. Payload is shared, not copied, along
// the delivery path; stages must treat it as read-only.
type Packet struct {
	// Seq is a generator-assigned unique sequence number used for loss
	// accounting.
	Seq uint64
	// Sent is the virtual time the packet left its source NIC.
	Sent time.Duration
	// FlowKey addressing.
	Src, Dst         Addr
	SrcPort, DstPort uint16
	Proto            Proto
	Flags            TCPFlags
	// TTL decrements at each router hop.
	TTL uint8
	// Payload is the application data carried.
	Payload []byte
	// Truth is ground-truth annotation. See Label.
	Truth Label
}

// HeaderBytes is the modeled size of link + IP + transport headers. The
// constant keeps wire-size arithmetic in one place.
const HeaderBytes = 54

// WireLen returns the modeled on-the-wire size in bytes.
func (p *Packet) WireLen() int { return HeaderBytes + len(p.Payload) }

// Key returns the unidirectional flow key of the packet.
func (p *Packet) Key() FlowKey {
	return FlowKey{Src: p.Src, Dst: p.Dst, SrcPort: p.SrcPort, DstPort: p.DstPort, Proto: p.Proto}
}

// Clone returns a deep copy, including the payload. Delivery paths share
// packets; cloning is for stages that must mutate (for example a router
// decrementing TTL on a mirrored copy).
func (p *Packet) Clone() *Packet {
	q := *p
	if p.Payload != nil {
		q.Payload = append([]byte(nil), p.Payload...)
	}
	return &q
}

// String renders a one-line summary.
func (p *Packet) String() string {
	return fmt.Sprintf("#%d %v [%v] len=%d", p.Seq, p.Key(), p.Flags, p.WireLen())
}
