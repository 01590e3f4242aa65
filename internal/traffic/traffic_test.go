package traffic

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/packet"
	"repro/internal/simtime"
)

func rng() *rand.Rand { return rand.New(rand.NewSource(42)) }

func TestHTTPRequestWellFormed(t *testing.T) {
	r := rng()
	for i := 0; i < 50; i++ {
		req := string(HTTPRequest(r))
		if !strings.HasPrefix(req, "GET ") && !strings.HasPrefix(req, "POST ") {
			t.Fatalf("bad request line: %q", req)
		}
		if !strings.Contains(req, "HTTP/1.0\r\n") || !strings.Contains(req, "Host: ") {
			t.Fatalf("missing required headers: %q", req)
		}
		if !strings.Contains(req, "\r\n\r\n") {
			t.Fatalf("no header terminator: %q", req)
		}
	}
}

func TestHTTPResponseBodyLength(t *testing.T) {
	r := rng()
	resp := string(HTTPResponse(r, 2048))
	idx := strings.Index(resp, "\r\n\r\n")
	if idx < 0 {
		t.Fatal("no header/body split")
	}
	body := resp[idx+4:]
	if len(body) < 2048 {
		t.Fatalf("body %d bytes, want >= 2048", len(body))
	}
	if !strings.Contains(resp, "Content-Length: ") {
		t.Fatal("missing Content-Length")
	}
}

func TestSMTPDialogueShape(t *testing.T) {
	r := rng()
	if got := string(SMTPExchange(r, 0, true)); !strings.HasPrefix(got, "HELO ") {
		t.Fatalf("step 0 client = %q", got)
	}
	if got := string(SMTPExchange(r, 4, true)); !strings.Contains(got, "Subject: ") || !strings.HasSuffix(got, "\r\n.\r\n") {
		t.Fatalf("DATA body = %q", got)
	}
	if got := string(SMTPExchange(r, 3, false)); !strings.HasPrefix(got, "354 ") {
		t.Fatalf("DATA reply = %q", got)
	}
}

func TestDNSQueryEncoding(t *testing.T) {
	r := rng()
	q := DNSQuery(r)
	if len(q) < 17 {
		t.Fatalf("query too short: %d", len(q))
	}
	if qd := binary.BigEndian.Uint16(q[4:6]); qd != 1 {
		t.Fatalf("QDCOUNT = %d", qd)
	}
	// Walk labels to the root and confirm QTYPE/QCLASS follow.
	i := 12
	for q[i] != 0 {
		i += int(q[i]) + 1
		if i >= len(q) {
			t.Fatal("label walk ran off the end")
		}
	}
	rest := q[i+1:]
	if len(rest) != 4 || binary.BigEndian.Uint16(rest[0:2]) != 1 || binary.BigEndian.Uint16(rest[2:4]) != 1 {
		t.Fatalf("QTYPE/QCLASS = %v", rest)
	}
}

func TestDNSResponseHasAnswer(t *testing.T) {
	r := rng()
	resp := DNSResponse(r)
	if resp[2]&0x80 == 0 {
		t.Fatal("QR bit not set")
	}
	if an := binary.BigEndian.Uint16(resp[6:8]); an != 1 {
		t.Fatalf("ANCOUNT = %d", an)
	}
}

func TestClusterRPCFraming(t *testing.T) {
	r := rng()
	msg := ClusterRPC(r, RPCTrackUpdate, 7)
	if binary.BigEndian.Uint32(msg[0:4]) != ClusterRPCMagic {
		t.Fatal("bad magic")
	}
	if ClusterRPCKind(binary.BigEndian.Uint16(msg[4:6])) != RPCTrackUpdate {
		t.Fatal("bad kind")
	}
	if binary.BigEndian.Uint32(msg[6:10]) != 7 {
		t.Fatal("bad seq")
	}
	hb := ClusterRPC(r, RPCHeartbeat, 0)
	if len(hb) != 14+8 {
		t.Fatalf("heartbeat len = %d", len(hb))
	}
}

func TestNTPPacket(t *testing.T) {
	r := rng()
	c := NTPPacket(r, true)
	s := NTPPacket(r, false)
	if len(c) != 48 || len(s) != 48 {
		t.Fatal("NTP packets must be 48 bytes")
	}
	if c[0]&0x07 != 3 || s[0]&0x07 != 4 {
		t.Fatalf("modes: client=%d server=%d", c[0]&7, s[0]&7)
	}
}

func TestRandomPayloadLength(t *testing.T) {
	r := rng()
	if got := len(RandomPayload(r, 333)); got != 333 {
		t.Fatalf("len = %d", got)
	}
}

func TestBuildDialogueDeterministic(t *testing.T) {
	a := BuildDialogue(rand.New(rand.NewSource(5)), AppHTTP, false)
	b := BuildDialogue(rand.New(rand.NewSource(5)), AppHTTP, false)
	if len(a.Steps) != len(b.Steps) {
		t.Fatal("nondeterministic step count")
	}
	for i := range a.Steps {
		if !bytes.Equal(a.Steps[i].Payload, b.Steps[i].Payload) {
			t.Fatalf("step %d payloads differ", i)
		}
	}
}

func TestBuildDialogueAllKinds(t *testing.T) {
	r := rng()
	for k := AppKind(0); k < numAppKinds; k++ {
		d := BuildDialogue(r, k, false)
		if d.Kind != k {
			t.Fatalf("kind %v: dialogue kind %v", k, d.Kind)
		}
		if len(d.Steps) == 0 {
			t.Fatalf("kind %v: empty dialogue", k)
		}
		if d.PacketCount() <= 0 || payloadBytes(d) <= 0 {
			t.Fatalf("kind %v: count=%d bytes=%d", k, d.PacketCount(), payloadBytes(d))
		}
	}
}

func TestRandomPayloadsPreserveLengths(t *testing.T) {
	plain := BuildDialogue(rand.New(rand.NewSource(9)), AppSMTP, false)
	noisy := BuildDialogue(rand.New(rand.NewSource(9)), AppSMTP, true)
	if len(plain.Steps) != len(noisy.Steps) {
		t.Fatal("step counts differ")
	}
	for i := range plain.Steps {
		if len(plain.Steps[i].Payload) != len(noisy.Steps[i].Payload) {
			t.Fatalf("step %d length changed under random payloads", i)
		}
	}
}

func TestFrameDialogueTCPFraming(t *testing.T) {
	r := rng()
	d := BuildDialogue(r, AppHTTP, false)
	plan := FrameDialogue(r, d, time.Millisecond)
	if len(plan) < 5 {
		t.Fatalf("plan too short: %d", len(plan))
	}
	if !plan[0].Packet.Flags.Has(packet.SYN) || !plan[0].FromClient {
		t.Fatal("first packet must be client SYN")
	}
	if !plan[1].Packet.Flags.Has(packet.SYN | packet.ACK) {
		t.Fatal("second packet must be SYN|ACK")
	}
	last := plan[len(plan)-1]
	if last.FromClient || !last.Packet.Flags.Has(packet.ACK) {
		t.Fatal("teardown must end with server ACK")
	}
	if !plan[len(plan)-2].Packet.Flags.Has(packet.FIN) {
		t.Fatal("client FIN missing")
	}
	// Offsets must be nondecreasing.
	for i := 1; i < len(plan); i++ {
		if plan[i].Offset < plan[i-1].Offset {
			t.Fatal("offsets not monotonic")
		}
	}
}

func TestFrameDialogueSegmentsLargePayloads(t *testing.T) {
	r := rng()
	d := Dialogue{Kind: AppBulk, Proto: packet.ProtoTCP,
		Steps: []Step{{FromClient: false, Payload: make([]byte, 3*MSS+100)}}}
	plan := FrameDialogue(r, d, time.Millisecond)
	segs := 0
	for _, tp := range plan {
		if len(tp.Packet.Payload) > 0 {
			segs++
			if len(tp.Packet.Payload) > MSS {
				t.Fatalf("segment exceeds MSS: %d", len(tp.Packet.Payload))
			}
		}
	}
	if segs != 4 {
		t.Fatalf("segments = %d, want 4", segs)
	}
	// Only the final segment of the burst carries PSH.
	pshSeen := 0
	for _, tp := range plan {
		if tp.Packet.Flags.Has(packet.PSH) {
			pshSeen++
		}
	}
	if pshSeen != 1 {
		t.Fatalf("PSH on %d segments, want 1", pshSeen)
	}
}

func TestFrameDialoguePacketCountMatchesEstimate(t *testing.T) {
	r := rng()
	for k := AppKind(0); k < numAppKinds; k++ {
		d := BuildDialogue(r, k, false)
		plan := FrameDialogue(r, d, time.Millisecond)
		if len(plan) != d.PacketCount() {
			t.Fatalf("kind %v: framed %d packets, PacketCount()=%d", k, len(plan), d.PacketCount())
		}
	}
}

func TestProfilePickRespectsWeights(t *testing.T) {
	p := EcommerceEdge()
	r := rng()
	counts := make(map[AppKind]int)
	const n = 20000
	for i := 0; i < n; i++ {
		counts[p.Pick(r).Kind]++
	}
	// HTTP dominates the e-commerce mix (62/100 weight).
	frac := float64(counts[AppHTTP]) / n
	if frac < 0.55 || frac > 0.70 {
		t.Fatalf("HTTP fraction %.3f, want ~0.62", frac)
	}
	if counts[AppClusterRPC] != 0 {
		t.Fatal("cluster RPC drawn from e-commerce profile")
	}
}

func TestClusterProfileIsEastWestDominated(t *testing.T) {
	p := RealTimeCluster()
	r := rng()
	ew := 0
	const n = 10000
	for i := 0; i < n; i++ {
		if p.Pick(r).Locality == EastWest {
			ew++
		}
	}
	if frac := float64(ew) / n; frac < 0.80 {
		t.Fatalf("east-west fraction %.3f, want >= 0.80", frac)
	}
}

func TestAvgPacketsPerSessionPositive(t *testing.T) {
	for _, p := range []Profile{EcommerceEdge(), RealTimeCluster()} {
		avg := p.AvgPacketsPerSession(rng(), 100)
		if avg < 2 {
			t.Fatalf("profile %s: avg %.1f packets/session", p.Name, avg)
		}
	}
}

func testEndpoints() Endpoints {
	return Endpoints{
		External: []packet.Addr{packet.IPv4(203, 0, 1, 1), packet.IPv4(203, 0, 1, 2)},
		Cluster:  []packet.Addr{packet.IPv4(10, 1, 1, 1), packet.IPv4(10, 1, 1, 2), packet.IPv4(10, 1, 1, 3)},
	}
}

func TestGeneratorEmitsFramedSessions(t *testing.T) {
	sim := simtime.New(3)
	var got []*packet.Packet
	g, err := NewGenerator(sim, EcommerceEdge(), testEndpoints(), nil, func(p *packet.Packet) {
		got = append(got, p)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Start(50); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(2 * time.Second)
	g.Stop()
	sim.Run()

	if g.SessionsStarted == 0 {
		t.Fatal("no sessions started")
	}
	if uint64(len(got)) != g.PacketsEmitted {
		t.Fatalf("emitted %d, counted %d", len(got), g.PacketsEmitted)
	}
	seen := make(map[uint64]bool)
	for _, p := range got {
		if p.Seq == 0 {
			t.Fatal("unassigned Seq")
		}
		if seen[p.Seq] {
			t.Fatalf("duplicate Seq %d", p.Seq)
		}
		seen[p.Seq] = true
		if p.Truth.Malicious {
			t.Fatal("background traffic labeled malicious")
		}
		if p.Src == 0 || p.Dst == 0 {
			t.Fatal("unaddressed packet")
		}
	}
}

func TestGeneratorDeterministicAcrossRuns(t *testing.T) {
	run := func() (uint64, uint64) {
		sim := simtime.New(77)
		g, err := NewGenerator(sim, RealTimeCluster(), testEndpoints(), nil, func(p *packet.Packet) {})
		if err != nil {
			t.Fatal(err)
		}
		g.Start(100)
		sim.RunUntil(time.Second)
		return g.SessionsStarted, g.PacketsEmitted
	}
	s1, p1 := run()
	s2, p2 := run()
	if s1 != s2 || p1 != p2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", s1, p1, s2, p2)
	}
}

func TestGeneratorValidation(t *testing.T) {
	sim := simtime.New(1)
	if _, err := NewGenerator(sim, EcommerceEdge(), Endpoints{}, nil, func(p *packet.Packet) {}); err == nil {
		t.Fatal("empty endpoints accepted")
	}
	if _, err := NewGenerator(sim, EcommerceEdge(), testEndpoints(), nil, nil); err == nil {
		t.Fatal("nil emit accepted")
	}
	g, _ := NewGenerator(sim, EcommerceEdge(), testEndpoints(), nil, func(p *packet.Packet) {})
	if err := g.Start(0); err == nil {
		t.Fatal("zero rate accepted")
	}
	if err := g.Start(10); err != nil {
		t.Fatal(err)
	}
	if err := g.Start(10); err == nil {
		t.Fatal("double Start accepted")
	}
}

func TestSessionRateForPps(t *testing.T) {
	sim := simtime.New(1)
	g, _ := NewGenerator(sim, EcommerceEdge(), testEndpoints(), nil, func(p *packet.Packet) {})
	rate := g.SessionRateForPps(1000)
	if rate <= 0 || rate >= 1000 {
		t.Fatalf("rate = %v; sessions carry multiple packets so rate must be in (0, pps)", rate)
	}
}

func TestGeneratorApproximatesTargetPps(t *testing.T) {
	sim := simtime.New(11)
	var n uint64
	g, _ := NewGenerator(sim, EcommerceEdge(), testEndpoints(), nil, func(p *packet.Packet) { n++ })
	const target = 2000.0
	g.Start(g.SessionRateForPps(target))
	const dur = 5 * time.Second
	sim.RunUntil(dur)
	got := float64(n) / dur.Seconds()
	if got < target*0.5 || got > target*1.6 {
		t.Fatalf("achieved %.0f pps, want within ~[0.5, 1.6]x of %.0f", got, target)
	}
}

// Property: framing any dialogue conserves payload bytes.
// payloadBytes totals a dialogue's application bytes across all steps.
func payloadBytes(d Dialogue) int {
	n := 0
	for _, s := range d.Steps {
		n += len(s.Payload)
	}
	return n
}

func TestPropertyFramingConservesBytes(t *testing.T) {
	f := func(seed int64, kindRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		kind := AppKind(int(kindRaw) % int(numAppKinds))
		d := BuildDialogue(r, kind, false)
		plan := FrameDialogue(r, d, time.Millisecond)
		total := 0
		for _, tp := range plan {
			total += len(tp.Packet.Payload)
		}
		return total == payloadBytes(d)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkBuildDialogueHTTP(b *testing.B) {
	r := rng()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BuildDialogue(r, AppHTTP, false)
	}
}

func BenchmarkGeneratorSecondOfTraffic(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim := simtime.New(5)
		g, _ := NewGenerator(sim, EcommerceEdge(), testEndpoints(), nil, func(p *packet.Packet) {})
		g.Start(200)
		sim.RunUntil(time.Second)
	}
}

func TestFTPExchangeShape(t *testing.T) {
	r := rng()
	if got := string(FTPExchange(r, 0, true)); !strings.HasPrefix(got, "USER ") {
		t.Fatalf("step 0 = %q", got)
	}
	if got := string(FTPExchange(r, 3, false)); !strings.Contains(got, "226 Transfer complete") {
		t.Fatalf("RETR reply = %q", got)
	}
	if got := string(FTPExchange(r, 9, true)); got != "QUIT\r\n" {
		t.Fatalf("final = %q", got)
	}
}

func TestPOP3ExchangeShape(t *testing.T) {
	r := rng()
	if got := string(POP3Exchange(r, 3, false)); !strings.Contains(got, "+OK message follows") || !strings.HasSuffix(got, "\r\n.\r\n") {
		t.Fatalf("RETR reply = %q", got)
	}
	if got := string(POP3Exchange(r, 2, true)); got != "STAT\r\n" {
		t.Fatalf("STAT = %q", got)
	}
}

func TestSyslogMessageShape(t *testing.T) {
	r := rng()
	for i := 0; i < 20; i++ {
		msg := string(SyslogMessage(r))
		if !strings.HasPrefix(msg, "<") || !strings.Contains(msg, ">") || !strings.Contains(msg, "]: ") {
			t.Fatalf("syslog line malformed: %q", msg)
		}
	}
}

func TestEnterpriseCampusProfile(t *testing.T) {
	p := EnterpriseCampus()
	r := rng()
	kinds := map[AppKind]int{}
	for i := 0; i < 5000; i++ {
		kinds[p.Pick(r).Kind]++
	}
	for _, k := range []AppKind{AppFTP, AppPOP3, AppSyslog} {
		if kinds[k] == 0 {
			t.Fatalf("campus profile never drew %v", k)
		}
	}
	if kinds[AppClusterRPC] != 0 {
		t.Fatal("cluster RPC drawn from campus profile")
	}
	// Dialogues for the new kinds frame correctly.
	for _, k := range []AppKind{AppFTP, AppPOP3, AppSyslog} {
		d := BuildDialogue(r, k, false)
		plan := FrameDialogue(r, d, time.Millisecond)
		if len(plan) != d.PacketCount() {
			t.Fatalf("%v: framed %d packets, PacketCount %d", k, len(plan), d.PacketCount())
		}
	}
	// Syslog is UDP one-way.
	d := BuildDialogue(r, AppSyslog, false)
	if d.Proto != packet.ProtoUDP {
		t.Fatal("syslog dialogue not UDP")
	}
	for _, st := range d.Steps {
		if !st.FromClient {
			t.Fatal("syslog produced a server->client step")
		}
	}
}

func TestCampusGeneratorRuns(t *testing.T) {
	sim := simtime.New(6)
	var n int
	g, err := NewGenerator(sim, EnterpriseCampus(), testEndpoints(), nil, func(p *packet.Packet) { n++ })
	if err != nil {
		t.Fatal(err)
	}
	g.Start(50)
	sim.RunUntil(3 * time.Second)
	g.Stop()
	sim.Run()
	if n < 100 {
		t.Fatalf("campus generator emitted only %d packets", n)
	}
}
