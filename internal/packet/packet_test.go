package packet

import (
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestIPv4String(t *testing.T) {
	a := IPv4(192, 168, 1, 20)
	if got := a.String(); got != "192.168.1.20" {
		t.Fatalf("String() = %q", got)
	}
	o1, o2, o3, o4 := a.Octets()
	if o1 != 192 || o2 != 168 || o3 != 1 || o4 != 20 {
		t.Fatalf("Octets() = %d.%d.%d.%d", o1, o2, o3, o4)
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

func TestFlowTable(t *testing.T) {
	ft := NewFlowTable()
	k := testKey()
	p := &Packet{Src: k.Src, Dst: k.Dst, SrcPort: k.SrcPort, DstPort: k.DstPort, Proto: k.Proto, Flags: SYN, Payload: []byte("x")}
	ft.Observe(p, time.Second)
	ft.Observe(p, 2*time.Second)
	if ft.Len() != 1 {
		t.Fatalf("Len() = %d", ft.Len())
	}
	st := ft.Get(k)
	if st == nil {
		t.Fatal("flow missing")
	}
	if st.Packets != 2 || st.Payloads != 2 || !st.SynSeen || st.FinSeen {
		t.Fatalf("stats = %+v", st)
	}
	if st.First != time.Second || st.Last != 2*time.Second {
		t.Fatalf("times = %v..%v", st.First, st.Last)
	}
	if got := ft.Get(k.Reverse()); got != nil {
		t.Fatal("reverse direction must be a distinct flow")
	}
}

func TestFlowTableKeysSorted(t *testing.T) {
	ft := NewFlowTable()
	for i := byte(10); i > 0; i-- {
		ft.Observe(&Packet{Src: IPv4(10, 0, 0, i), Dst: IPv4(10, 0, 0, 100), Proto: ProtoUDP}, 0)
	}
	keys := ft.Keys()
	if len(keys) != 10 {
		t.Fatalf("len(keys) = %d", len(keys))
	}
	for i := 1; i < len(keys); i++ {
		if !keys[i-1].less(keys[i]) {
			t.Fatal("keys not sorted")
		}
	}
}

func mkTCP(k FlowKey, flags TCPFlags) *Packet {
	return &Packet{Src: k.Src, Dst: k.Dst, SrcPort: k.SrcPort, DstPort: k.DstPort, Proto: ProtoTCP, Flags: flags}
}

func TestTCPTrackerHandshakeLifecycle(t *testing.T) {
	tr := NewTCPTracker(0)
	k := testKey()
	tr.Observe(mkTCP(k, SYN), 0)
	if tr.Concurrent() != 0 {
		t.Fatal("session established after bare SYN")
	}
	tr.Observe(mkTCP(k.Reverse(), SYN|ACK), time.Millisecond)
	tr.Observe(mkTCP(k, ACK), 2*time.Millisecond)
	if tr.Concurrent() != 1 {
		t.Fatalf("Concurrent() = %d after handshake", tr.Concurrent())
	}
	if st, ok := tr.State(k); !ok || st != TCPStateEstablished {
		t.Fatalf("State() = %v, %v", st, ok)
	}
	tr.Observe(mkTCP(k, FIN|ACK), 3*time.Millisecond)
	if tr.Concurrent() != 0 {
		t.Fatalf("Concurrent() = %d after FIN", tr.Concurrent())
	}
	if tr.PeakConcurrent() != 1 || tr.TotalOpened() != 1 {
		t.Fatalf("peak=%d total=%d", tr.PeakConcurrent(), tr.TotalOpened())
	}
}

func TestTCPTrackerRSTCloses(t *testing.T) {
	tr := NewTCPTracker(0)
	k := testKey()
	tr.Observe(mkTCP(k, SYN), 0)
	tr.Observe(mkTCP(k.Reverse(), SYN|ACK), 1)
	tr.Observe(mkTCP(k, ACK), 2)
	tr.Observe(mkTCP(k.Reverse(), RST), 3)
	if tr.Concurrent() != 0 {
		t.Fatalf("Concurrent() = %d after RST", tr.Concurrent())
	}
}

func TestTCPTrackerMidStreamPickup(t *testing.T) {
	tr := NewTCPTracker(0)
	k := testKey()
	tr.Observe(mkTCP(k, ACK|PSH), 0)
	if tr.Concurrent() != 1 {
		t.Fatal("mid-stream traffic must be counted as an established session")
	}
}

func TestTCPTrackerPeakConcurrent(t *testing.T) {
	tr := NewTCPTracker(0)
	for i := byte(1); i <= 5; i++ {
		k := FlowKey{Src: IPv4(10, 0, 0, i), Dst: IPv4(10, 0, 1, 1), SrcPort: 1000 + uint16(i), DstPort: 80, Proto: ProtoTCP}
		tr.Observe(mkTCP(k, SYN), 0)
		tr.Observe(mkTCP(k, ACK), 1)
	}
	if tr.PeakConcurrent() != 5 || tr.Concurrent() != 5 {
		t.Fatalf("peak=%d cur=%d", tr.PeakConcurrent(), tr.Concurrent())
	}
}

func TestTCPTrackerExpire(t *testing.T) {
	tr := NewTCPTracker(10 * time.Second)
	k := testKey()
	tr.Observe(mkTCP(k, SYN), 0)
	tr.Observe(mkTCP(k, ACK), time.Second)
	if n := tr.Expire(5 * time.Second); n != 0 {
		t.Fatalf("expired %d sessions too early", n)
	}
	if n := tr.Expire(30 * time.Second); n != 1 {
		t.Fatalf("Expire = %d, want 1", n)
	}
	if tr.Concurrent() != 0 {
		t.Fatalf("Concurrent() = %d after expiry", tr.Concurrent())
	}
	// Zero timeout disables expiry entirely.
	tr2 := NewTCPTracker(0)
	tr2.Observe(mkTCP(k, ACK), 0)
	if n := tr2.Expire(time.Hour); n != 0 {
		t.Fatal("expiry ran with zero timeout")
	}
}

func TestTCPTrackerIgnoresNonTCP(t *testing.T) {
	tr := NewTCPTracker(0)
	tr.Observe(&Packet{Proto: ProtoUDP}, 0)
	if tr.Concurrent() != 0 || tr.TotalOpened() != 0 {
		t.Fatal("UDP affected TCP tracker")
	}
}

func BenchmarkFlowKeyHash(b *testing.B) {
	k := testKey()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = k.Hash()
	}
}

func BenchmarkFlowTableObserve(b *testing.B) {
	ft := NewFlowTable()
	p := &Packet{Src: IPv4(10, 0, 0, 1), Dst: IPv4(10, 0, 0, 2), SrcPort: 1234, DstPort: 80, Proto: ProtoTCP}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.SrcPort = uint16(i % 5000)
		ft.Observe(p, time.Duration(i))
	}
}

func TestSeqCounter(t *testing.T) {
	var c SeqCounter
	if c.Issued() != 0 {
		t.Fatal("fresh counter issued nonzero")
	}
	if c.Next() != 1 || c.Next() != 2 {
		t.Fatal("sequence not monotonic from 1")
	}
	if c.Issued() != 2 {
		t.Fatalf("Issued() = %d", c.Issued())
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

func TestTCPStateString(t *testing.T) {
	if TCPStateSynSent.String() != "syn-sent" || TCPStateEstablished.String() != "established" ||
		TCPStateClosed.String() != "closed" || TCPState(9).String() != "invalid" {
		t.Fatal("state names wrong")
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
