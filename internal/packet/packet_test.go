package packet

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestIPv4String(t *testing.T) {
	a := IPv4(192, 168, 1, 20)
	if got := a.String(); got != "192.168.1.20" {
		t.Fatalf("String() = %q", got)
	}
}

func TestProtoString(t *testing.T) {
	cases := map[Proto]string{ProtoTCP: "TCP", ProtoUDP: "UDP", ProtoICMP: "ICMP", Proto(99): "proto(99)"}
	for p, want := range cases {
		if got := p.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", p, got, want)
		}
	}
}

func TestTCPFlags(t *testing.T) {
	f := SYN | ACK
	if !f.Has(SYN) || !f.Has(ACK) || f.Has(FIN) {
		t.Fatal("flag membership wrong")
	}
	if got := f.String(); got != "SA" {
		t.Fatalf("String() = %q, want SA", got)
	}
	if got := TCPFlags(0).String(); got != "." {
		t.Fatalf("empty flags String() = %q", got)
	}
}

func testKey() FlowKey {
	return FlowKey{
		Src: IPv4(10, 0, 0, 1), Dst: IPv4(10, 0, 0, 2),
		SrcPort: 40000, DstPort: 80, Proto: ProtoTCP,
	}
}

func TestFlowKeyReverse(t *testing.T) {
	k := testKey()
	r := k.Reverse()
	if r.Src != k.Dst || r.Dst != k.Src || r.SrcPort != k.DstPort || r.DstPort != k.SrcPort {
		t.Fatalf("Reverse() = %v", r)
	}
	if r.Reverse() != k {
		t.Fatal("Reverse is not an involution")
	}
}

func TestFlowKeyCanonicalBothDirectionsEqual(t *testing.T) {
	k := testKey()
	if k.Canonical() != k.Reverse().Canonical() {
		t.Fatal("both directions must canonicalize identically")
	}
}

func TestFlowKeyHashDirectionIndependent(t *testing.T) {
	k := testKey()
	if k.Hash() != k.Reverse().Hash() {
		t.Fatal("hash must be direction independent")
	}
}

// Property: canonicalization is idempotent and direction-independent for
// arbitrary keys.
func TestPropertyCanonical(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, proto uint8) bool {
		k := FlowKey{Src: Addr(src), Dst: Addr(dst), SrcPort: sp, DstPort: dp, Proto: Proto(proto)}
		c := k.Canonical()
		return c == c.Canonical() && c == k.Reverse().Canonical()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPacketWireLenAndClone(t *testing.T) {
	p := &Packet{Src: IPv4(1, 2, 3, 4), Payload: []byte("hello")}
	if p.WireLen() != HeaderBytes+5 {
		t.Fatalf("WireLen() = %d", p.WireLen())
	}
	q := p.Clone()
	q.Payload[0] = 'H'
	if p.Payload[0] != 'h' {
		t.Fatal("Clone shares payload storage")
	}
	var empty Packet
	if c := empty.Clone(); c.Payload != nil {
		t.Fatal("Clone of nil payload produced non-nil payload")
	}
}

func BenchmarkFlowKeyHash(b *testing.B) {
	k := testKey()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = k.Hash()
	}
}

func TestSeqCounter(t *testing.T) {
	var c SeqCounter
	if c.n != 0 {
		t.Fatal("fresh counter issued nonzero")
	}
	if c.Next() != 1 || c.Next() != 2 {
		t.Fatal("sequence not monotonic from 1")
	}
	if c.n != 2 {
		t.Fatalf("issued %d", c.n)
	}
}

func TestFlowKeyString(t *testing.T) {
	k := testKey()
	want := "10.0.0.1:40000 > 10.0.0.2:80/TCP"
	if got := k.String(); got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestPacketString(t *testing.T) {
	p := &Packet{Seq: 9, Src: IPv4(1, 2, 3, 4), Dst: IPv4(5, 6, 7, 8), SrcPort: 1, DstPort: 2, Proto: ProtoTCP, Flags: SYN, Payload: []byte("xy")}
	s := p.String()
	for _, want := range []string{"#9", "1.2.3.4:1", "5.6.7.8:2", "[S]", "len=56"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q missing %q", s, want)
		}
	}
}

// Property: WireLen is always header size plus payload length, and Clone
// preserves it.
func TestPropertyWireLenClone(t *testing.T) {
	f := func(payload []byte) bool {
		p := &Packet{Payload: payload}
		return p.WireLen() == HeaderBytes+len(payload) && p.Clone().WireLen() == p.WireLen()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
