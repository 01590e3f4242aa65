package detect

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/traffic"
)

var (
	extAddr = packet.IPv4(203, 0, 1, 9)
	lanA    = packet.IPv4(10, 1, 1, 1)
	lanB    = packet.IPv4(10, 1, 1, 2)
)

func tcpPkt(src, dst packet.Addr, dport uint16, flags packet.TCPFlags, payload []byte) *packet.Packet {
	return &packet.Packet{
		Src: src, Dst: dst, SrcPort: 31000, DstPort: dport,
		Proto: packet.ProtoTCP, Flags: flags, Payload: payload, TTL: 64,
	}
}

func TestEntropy(t *testing.T) {
	if got := Entropy(nil); got != 0 {
		t.Fatalf("Entropy(nil) = %v", got)
	}
	if got := Entropy(bytes.Repeat([]byte{'a'}, 100)); got != 0 {
		t.Fatalf("uniform byte entropy = %v, want 0", got)
	}
	all := make([]byte, 256)
	for i := range all {
		all[i] = byte(i)
	}
	if got := Entropy(all); math.Abs(got-8) > 1e-9 {
		t.Fatalf("full-alphabet entropy = %v, want 8", got)
	}
	// Past the c·log2 c table: counts are computed directly.
	if got := Entropy(bytes.Repeat([]byte{'a'}, 5000)); got != 0 {
		t.Fatalf("long uniform byte entropy = %v, want 0", got)
	}
	if got := Entropy(bytes.Repeat(all, 20)); math.Abs(got-8) > 1e-9 {
		t.Fatalf("long full-alphabet entropy = %v, want 8", got)
	}
	text := Entropy([]byte("the quick brown fox jumps over the lazy dog"))
	if text < 3 || text > 5 {
		t.Fatalf("english text entropy = %v, want ~4", text)
	}
}

func TestMechanismString(t *testing.T) {
	if MechanismSignature.String() != "signature-based" ||
		MechanismAnomaly.String() != "anomaly-based" ||
		MechanismHybrid.String() != "hybrid" {
		t.Fatal("mechanism names wrong")
	}
}

// sensitivityOf reads an engine's current sensitivity setting.
func sensitivityOf(e Engine) float64 {
	switch e := e.(type) {
	case *SignatureEngine:
		return e.sensitivity
	case *AnomalyEngine:
		return e.sensitivity
	}
	panic("sensitivityOf: unexpected engine type")
}

func TestSensitivityValidation(t *testing.T) {
	for _, e := range []Engine{NewStandardSignatureEngine(), NewAnomalyEngine()} {
		if err := e.SetSensitivity(-0.1); err == nil {
			t.Fatalf("%s accepted -0.1", e.Name())
		}
		if err := e.SetSensitivity(1.1); err == nil {
			t.Fatalf("%s accepted 1.1", e.Name())
		}
		if err := e.SetSensitivity(math.NaN()); err == nil {
			t.Fatalf("%s accepted NaN", e.Name())
		}
		if err := e.SetSensitivity(0.7); err != nil {
			t.Fatal(err)
		}
		if got := sensitivityOf(e); got != 0.7 {
			t.Fatalf("%s sensitivity = %v", e.Name(), got)
		}
	}
}

func TestSignatureDetectsExploitPayload(t *testing.T) {
	e := NewStandardSignatureEngine()
	p := tcpPkt(extAddr, lanA, 80, packet.ACK|packet.PSH,
		[]byte("GET /cgi-bin/phf?Qalias=x%0a/bin/cat%20/etc/passwd HTTP/1.0\r\n\r\n"))
	alerts := e.Inspect(p, time.Second)
	if len(alerts) == 0 {
		t.Fatal("phf exploit not detected")
	}
	found := false
	for _, a := range alerts {
		if a.Technique == "exploit" && a.Attacker == extAddr && a.Victim == lanA {
			found = true
		}
	}
	if !found {
		t.Fatalf("no exploit alert in %v", alerts)
	}
}

func TestSignatureNOPSled(t *testing.T) {
	e := NewStandardSignatureEngine()
	p := tcpPkt(extAddr, lanA, 21, packet.ACK|packet.PSH,
		append([]byte("USER "), bytes.Repeat([]byte{0x90}, 64)...))
	if alerts := e.Inspect(p, 0); len(alerts) == 0 {
		t.Fatal("NOP sled not detected")
	}
}

func TestSignatureLowSensitivityIgnoresKeywordRules(t *testing.T) {
	e := NewStandardSignatureEngine()
	if err := e.SetSensitivity(0.1); err != nil {
		t.Fatal(err)
	}
	// Benign SMTP mentioning "admin" must not alert at low sensitivity.
	p := tcpPkt(extAddr, lanA, 25, packet.ACK|packet.PSH,
		[]byte("MAIL FROM:<admin@example.com>\r\n"))
	if alerts := e.Inspect(p, 0); len(alerts) != 0 {
		t.Fatalf("low-sensitivity keyword alert: %v", alerts)
	}
	// At maximum sensitivity the same packet trips the keyword rule.
	e2 := NewStandardSignatureEngine()
	if err := e2.SetSensitivity(1); err != nil {
		t.Fatal(err)
	}
	if alerts := e2.Inspect(p, 0); len(alerts) == 0 {
		t.Fatal("keyword rule inactive at sensitivity 1")
	}
}

func TestSignatureSuppressionDeduplicates(t *testing.T) {
	e := NewStandardSignatureEngine()
	p := tcpPkt(extAddr, lanA, 80, packet.ACK|packet.PSH, []byte("cgi-bin/phf attack"))
	first := e.Inspect(p, time.Second)
	second := e.Inspect(p, time.Second+100*time.Millisecond)
	third := e.Inspect(p, 10*time.Second)
	if len(first) == 0 {
		t.Fatal("no initial alert")
	}
	if len(second) != 0 {
		t.Fatal("suppression window ignored")
	}
	if len(third) == 0 {
		t.Fatal("alert not re-raised after suppression window")
	}
}

func TestSignaturePortScanThreshold(t *testing.T) {
	e := NewStandardSignatureEngine()
	var alerts []Alert
	now := time.Duration(0)
	for port := uint16(1); port <= 80; port++ {
		p := tcpPkt(extAddr, lanA, port, packet.SYN, nil)
		alerts = append(alerts, e.Inspect(p, now)...)
		now += 10 * time.Millisecond
	}
	scan := 0
	for _, a := range alerts {
		if a.Technique == "portscan" {
			scan++
		}
	}
	if scan == 0 {
		t.Fatal("port scan not detected")
	}
}

func TestSignatureScanThresholdRespectsSensitivity(t *testing.T) {
	countAlerts := func(s float64, ports int) int {
		e := NewStandardSignatureEngine()
		if err := e.SetSensitivity(s); err != nil {
			t.Fatal(err)
		}
		n := 0
		now := time.Duration(0)
		for port := uint16(1); int(port) <= ports; port++ {
			for _, a := range e.Inspect(tcpPkt(extAddr, lanA, port, packet.SYN, nil), now) {
				if a.Technique == "portscan" {
					n++
				}
			}
			now += 5 * time.Millisecond
		}
		return n
	}
	// 30 probes: below the base-40 threshold at low sensitivity, above
	// the scaled-down threshold at sensitivity 1 (40*0.5=20).
	if got := countAlerts(0.2, 30); got != 0 {
		t.Fatalf("low sensitivity fired on 30 probes: %d", got)
	}
	if got := countAlerts(1.0, 30); got == 0 {
		t.Fatal("high sensitivity missed 30 probes")
	}
}

func TestSignatureSYNFloodThreshold(t *testing.T) {
	e := NewStandardSignatureEngine()
	n := 0
	for i := 0; i < 800; i++ {
		p := tcpPkt(extAddr, lanA, 80, packet.SYN, nil)
		p.SrcPort = uint16(1024 + i)
		for _, a := range e.Inspect(p, time.Duration(i)*time.Millisecond) {
			if a.Technique == "synflood" {
				n++
			}
		}
	}
	if n == 0 {
		t.Fatal("SYN flood not detected")
	}
}

func TestSignatureBruteForceThreshold(t *testing.T) {
	e := NewStandardSignatureEngine()
	e.SetSensitivity(0.5)
	n := 0
	for i := 0; i < 20; i++ {
		p := tcpPkt(lanA, extAddr, 31000, packet.ACK|packet.PSH, []byte("Login incorrect\r\n"))
		p.SrcPort = 23
		for _, a := range e.Inspect(p, time.Duration(i)*200*time.Millisecond) {
			if a.Technique == "bruteforce" && strings.Contains(a.Reason, "threshold") {
				n++
			}
		}
	}
	if n == 0 {
		t.Fatal("brute force threshold never fired")
	}
}

func TestSignatureCostScalesWithPayload(t *testing.T) {
	e := NewStandardSignatureEngine()
	small := e.CostPerPacket(tcpPkt(extAddr, lanA, 80, 0, make([]byte, 10)))
	big := e.CostPerPacket(tcpPkt(extAddr, lanA, 80, 0, make([]byte, 1400)))
	if big <= small {
		t.Fatalf("cost not payload-sensitive: %v vs %v", small, big)
	}
}

// trainAnomaly builds a baseline from clean cluster-profile traffic.
func trainAnomaly(t testing.TB, e *AnomalyEngine) {
	t.Helper()
	r := rand.New(rand.NewSource(8))
	now := time.Duration(0)
	for i := 0; i < 3000; i++ {
		// DNS queries between LAN hosts.
		dns := &packet.Packet{
			Src: lanA, Dst: lanB, SrcPort: uint16(1024 + r.Intn(60000)), DstPort: 53,
			Proto: packet.ProtoUDP, Payload: traffic.DNSQuery(r),
		}
		e.Train(dns, now)
		// Cluster RPC.
		rpc := &packet.Packet{
			Src: lanB, Dst: lanA, SrcPort: 7400, DstPort: 7400,
			Proto: packet.ProtoUDP, Payload: traffic.ClusterRPC(r, traffic.RPCStateVector, uint32(i)),
		}
		e.Train(rpc, now)
		now += 5 * time.Millisecond
	}
}

func TestAnomalyDetectsDNSTunnelEntropy(t *testing.T) {
	e := NewAnomalyEngine()
	trainAnomaly(t, e)
	e.SetSensitivity(0.6)
	// A long, high-entropy DNS "query" as the tunnel scenario emits.
	r := rand.New(rand.NewSource(5))
	payload := make([]byte, 110)
	r.Read(payload)
	p := &packet.Packet{
		Src: lanA, Dst: extAddr, SrcPort: 40000, DstPort: 53,
		Proto: packet.ProtoUDP, Payload: payload,
	}
	alerts := e.Inspect(p, 20*time.Second)
	if len(alerts) == 0 {
		t.Fatal("tunnel-like DNS payload not flagged")
	}
}

func TestAnomalyIgnoresNormalTraffic(t *testing.T) {
	e := NewAnomalyEngine()
	trainAnomaly(t, e)
	e.SetSensitivity(0.5)
	r := rand.New(rand.NewSource(9))
	falsePositives := 0
	now := 20 * time.Second
	for i := 0; i < 500; i++ {
		p := &packet.Packet{
			Src: lanA, Dst: lanB, SrcPort: uint16(1024 + r.Intn(60000)), DstPort: 53,
			Proto: packet.ProtoUDP, Payload: traffic.DNSQuery(r),
		}
		falsePositives += len(e.Inspect(p, now))
		now += 10 * time.Millisecond
	}
	if falsePositives > 5 {
		t.Fatalf("%d false positives on in-profile traffic", falsePositives)
	}
}

func TestAnomalyNoveltyGatedBySensitivity(t *testing.T) {
	fresh := func(s float64) []Alert {
		e := NewAnomalyEngine()
		trainAnomaly(t, e)
		e.SetSensitivity(s)
		// Unknown service on a known host (insider rsh-style pull).
		p := tcpPkt(lanA, lanB, 514, packet.ACK|packet.PSH, []byte("cat /etc/shadow\n"))
		return e.Inspect(p, 30*time.Second)
	}
	if got := fresh(0.1); len(got) != 0 {
		t.Fatalf("novelty alert at sensitivity 0.1: %v", got)
	}
	if got := fresh(0.8); len(got) == 0 {
		t.Fatal("novel service missed at sensitivity 0.8")
	}
}

func TestAnomalyRateSpike(t *testing.T) {
	e := NewAnomalyEngine()
	trainAnomaly(t, e)
	e.SetSensitivity(0.7)
	r := rand.New(rand.NewSource(3))
	n := 0
	// Flood: thousands of packets from one source in under a second.
	for i := 0; i < 5000; i++ {
		p := &packet.Packet{
			Src: extAddr, Dst: lanA, SrcPort: uint16(1024 + i%60000), DstPort: 80,
			Proto: packet.ProtoTCP, Flags: packet.SYN,
		}
		_ = r
		for _, a := range e.Inspect(p, 30*time.Second+time.Duration(i)*100*time.Microsecond) {
			if a.Technique == "rate-anomaly" {
				n++
			}
		}
	}
	if n == 0 {
		t.Fatal("rate spike not detected")
	}
}

func TestAnomalySensitivityMonotoneOnAttack(t *testing.T) {
	// Higher sensitivity must not detect fewer attack packets.
	count := func(s float64) int {
		e := NewAnomalyEngine()
		trainAnomaly(t, e)
		e.SetSensitivity(s)
		r := rand.New(rand.NewSource(5))
		n := 0
		now := 30 * time.Second
		for i := 0; i < 50; i++ {
			payload := make([]byte, 100+r.Intn(20))
			r.Read(payload)
			p := &packet.Packet{
				Src: lanB, Dst: extAddr, SrcPort: 40000, DstPort: 53,
				Proto: packet.ProtoUDP, Payload: payload,
			}
			n += len(e.Inspect(p, now))
			now += 3 * time.Second // outside suppression window
		}
		return n
	}
	low, high := count(0.2), count(0.9)
	if high < low {
		t.Fatalf("sensitivity not monotone: low=%d high=%d", low, high)
	}
	if high == 0 {
		t.Fatal("high sensitivity detected nothing")
	}
}

func TestHybridParallelUnionsAlerts(t *testing.T) {
	sig := NewStandardSignatureEngine()
	anom := NewAnomalyEngine()
	trainAnomaly(t, anom)
	h := NewHybridEngine(sig, anom, HybridParallel)
	h.SetSensitivity(0.8)
	// A packet that trips both: novel service AND a signature.
	p := tcpPkt(lanA, lanB, 514, packet.ACK|packet.PSH, []byte("cat /etc/shadow\n"))
	alerts := h.Inspect(p, 30*time.Second)
	engines := make(map[string]bool)
	for _, a := range alerts {
		engines[a.Engine] = true
	}
	var sawSig, sawAnom bool
	for e := range engines {
		if strings.Contains(e, "signature") {
			sawSig = true
		}
		if strings.Contains(e, "anomaly") {
			sawAnom = true
		}
	}
	if !sawSig || !sawAnom {
		t.Fatalf("parallel hybrid alerts from %v, want both engines", engines)
	}
}

func TestHybridSerialShortCircuits(t *testing.T) {
	sig := NewStandardSignatureEngine()
	anom := NewAnomalyEngine()
	trainAnomaly(t, anom)
	h := NewHybridEngine(sig, anom, HybridSerial)
	h.SetSensitivity(0.8)
	p := tcpPkt(lanA, lanB, 514, packet.ACK|packet.PSH, []byte("cat /etc/shadow\n"))
	alerts := h.Inspect(p, 30*time.Second)
	for _, a := range alerts {
		if strings.Contains(a.Engine, "anomaly") {
			t.Fatalf("serial hybrid consulted anomaly engine despite signature hit: %v", a)
		}
	}
	if len(alerts) == 0 {
		t.Fatal("serial hybrid missed signature hit")
	}
}

// TestHybridTagsChildNames pins the tagged engine names, "hybrid-<mode>/
// <child>", and that tagging a known child's alert allocates nothing; a
// child name the engine was not built with is still tagged.
func TestHybridTagsChildNames(t *testing.T) {
	h := NewHybridEngine(NewStandardSignatureEngine(), NewAnomalyEngine(), HybridSerial)
	alerts := []Alert{{Engine: "signature"}, {Engine: "anomaly"}, {Engine: "other"}}
	h.tag(alerts)
	for i, want := range []string{"hybrid-serial/signature", "hybrid-serial/anomaly", "hybrid-serial/other"} {
		if alerts[i].Engine != want {
			t.Fatalf("alert %d tagged %q, want %q", i, alerts[i].Engine, want)
		}
	}
	known := make([]Alert, 2)
	if n := testing.AllocsPerRun(100, func() {
		known[0].Engine, known[1].Engine = "signature", "anomaly"
		h.tag(known)
	}); n != 0 {
		t.Fatalf("tagging known children allocated %v times per call", n)
	}
}

func TestHybridCostModel(t *testing.T) {
	sig := NewStandardSignatureEngine()
	anom := NewAnomalyEngine()
	par := NewHybridEngine(sig, anom, HybridParallel)
	ser := NewHybridEngine(sig, anom, HybridSerial)
	p := tcpPkt(extAddr, lanA, 80, 0, make([]byte, 1000))
	if par.CostPerPacket(p) <= ser.CostPerPacket(p) {
		t.Fatal("parallel hybrid should cost more than serial")
	}
	if ser.CostPerPacket(p) <= sig.CostPerPacket(p) {
		t.Fatal("serial hybrid should cost more than signature alone")
	}
}

func TestHybridSensitivityPropagates(t *testing.T) {
	sig := NewStandardSignatureEngine()
	anom := NewAnomalyEngine()
	h := NewHybridEngine(sig, anom, HybridParallel)
	if err := h.SetSensitivity(0.9); err != nil {
		t.Fatal(err)
	}
	if sig.sensitivity != 0.9 || anom.sensitivity != 0.9 {
		t.Fatal("sensitivity did not propagate")
	}
	if err := h.SetSensitivity(2); err == nil {
		t.Fatal("invalid sensitivity accepted")
	}
}

func BenchmarkSignatureInspectBenign(b *testing.B) {
	e := NewStandardSignatureEngine()
	r := rand.New(rand.NewSource(1))
	p := tcpPkt(extAddr, lanA, 80, packet.ACK|packet.PSH, traffic.HTTPResponse(r, 2048))
	b.SetBytes(int64(len(p.Payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Inspect(p, time.Duration(i)*time.Microsecond)
	}
}

func BenchmarkAnomalyInspect(b *testing.B) {
	e := NewAnomalyEngine()
	trainAnomaly(b, e)
	r := rand.New(rand.NewSource(1))
	p := &packet.Packet{
		Src: lanA, Dst: lanB, SrcPort: 40000, DstPort: 53,
		Proto: packet.ProtoUDP, Payload: traffic.DNSQuery(r),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Inspect(p, time.Duration(i)*time.Microsecond)
	}
}

func TestDNSOversizeRuleCatchesTunnel(t *testing.T) {
	e := NewUpdatedSignatureEngine()
	e.SetSensitivity(0.5)
	r := rand.New(rand.NewSource(5))
	n := 0
	// Tunnel-like stream: oversized DNS queries from one conversation.
	for i := 0; i < 40; i++ {
		payload := make([]byte, 100+r.Intn(20))
		r.Read(payload)
		p := &packet.Packet{
			Src: lanA, Dst: extAddr, SrcPort: 40000, DstPort: 53,
			Proto: packet.ProtoUDP, Payload: payload,
		}
		for _, a := range e.Inspect(p, time.Duration(i)*100*time.Millisecond) {
			if a.Technique == "dns-tunnel" {
				n++
			}
		}
	}
	if n == 0 {
		t.Fatal("updated corpus missed the tunnel-shaped stream")
	}
	// The stock corpus must NOT fire on it (the 5.0 gap).
	stock := NewStandardSignatureEngine()
	stock.SetSensitivity(0.5)
	for i := 0; i < 40; i++ {
		payload := make([]byte, 100+r.Intn(20))
		r.Read(payload)
		p := &packet.Packet{
			Src: lanA, Dst: extAddr, SrcPort: 40000, DstPort: 53,
			Proto: packet.ProtoUDP, Payload: payload,
		}
		if alerts := stock.Inspect(p, time.Duration(i)*100*time.Millisecond); len(alerts) != 0 {
			t.Fatalf("stock corpus alerted on DNS tunnel: %v", alerts)
		}
	}
}

func TestDNSOversizeRuleIgnoresNormalDNS(t *testing.T) {
	e := NewUpdatedSignatureEngine()
	e.SetSensitivity(0.5)
	r := rand.New(rand.NewSource(6))
	for i := 0; i < 200; i++ {
		p := &packet.Packet{
			Src: lanA, Dst: lanB, SrcPort: uint16(1024 + r.Intn(60000)), DstPort: 53,
			Proto: packet.ProtoUDP, Payload: traffic.DNSQuery(r),
		}
		if alerts := e.Inspect(p, time.Duration(i)*50*time.Millisecond); len(alerts) != 0 {
			t.Fatalf("oversize rule fired on a normal query: %v", alerts)
		}
	}
}

func TestICMPSweepRule(t *testing.T) {
	e := NewUpdatedSignatureEngine()
	e.SetSensitivity(0.5)
	n := 0
	for i := 0; i < 30; i++ {
		p := &packet.Packet{
			Src: extAddr, Dst: packet.IPv4(10, 1, 1, byte(i%6+1)),
			Proto: packet.ProtoICMP, Payload: []byte{8, 0},
		}
		for _, a := range e.Inspect(p, time.Duration(i)*100*time.Millisecond) {
			if a.Technique == "pingsweep" {
				n++
			}
		}
	}
	if n == 0 {
		t.Fatal("ping sweep undetected by updated corpus")
	}
	// The stock corpus ignores ICMP entirely.
	stock := NewStandardSignatureEngine()
	stock.SetSensitivity(1)
	for i := 0; i < 30; i++ {
		p := &packet.Packet{
			Src: extAddr, Dst: packet.IPv4(10, 1, 1, byte(i%6+1)),
			Proto: packet.ProtoICMP, Payload: []byte{8, 0},
		}
		if alerts := stock.Inspect(p, time.Duration(i)*100*time.Millisecond); len(alerts) != 0 {
			t.Fatalf("stock corpus alerted on ICMP: %v", alerts)
		}
	}
}
