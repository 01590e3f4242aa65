package detect

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/packet"
)

// anomalyScriptPacket is one step of a recorded inspection sequence.
type anomalyScriptPacket struct {
	at time.Duration
	p  *packet.Packet
}

// anomalyScript exercises every alert cause of a trained engine, each
// both fired and suppressed: high-entropy DNS payloads (content), an
// unbaselined service (novel service + first contact), a SYN flood
// (rate), and repeats inside and outside the suppress window.
func anomalyScript() []anomalyScriptPacket {
	r := rand.New(rand.NewSource(21))
	noise := func(n int) []byte {
		b := make([]byte, n)
		r.Read(b)
		return b
	}
	var out []anomalyScriptPacket
	add := func(at time.Duration, p *packet.Packet) { out = append(out, anomalyScriptPacket{at, p}) }
	t0 := 30 * time.Second
	for i := 0; i < 4; i++ {
		at := t0 + time.Duration(i)*900*time.Millisecond
		add(at, &packet.Packet{
			Src: lanA, Dst: lanB, SrcPort: 40000, DstPort: 53,
			Proto: packet.ProtoUDP, Payload: noise(100 + 10*i),
		})
		add(at+time.Millisecond, tcpPkt(lanA, lanB, 514, packet.ACK|packet.PSH, []byte("cat /etc/shadow\n")))
	}
	for i := 0; i < 6000; i++ {
		add(t0+5*time.Second+time.Duration(i)*500*time.Microsecond, &packet.Packet{
			Src: extAddr, Dst: lanA, SrcPort: uint16(1024 + i), DstPort: 80,
			Proto: packet.ProtoTCP, Flags: packet.SYN,
		})
	}
	return out
}

// anomalyScriptGolden is the alert stream anomalyScript produces at
// sensitivity 1. Reasons are formatted only after the suppression check
// passes; this pins that the ordering changes no technique, severity or
// reason, nor the time at which any cause fires.
var anomalyScriptGolden = []string{
	"30s | content-anomaly | 1 | payload deviates from service baseline (len z=7.9, entropy z=0.0)",
	"30.001s | novel-service | 0.5 | no baseline for service port 514/TCP",
	"30.001s | novel-service | 0.45 | first contact 10.1.1.1 -> 10.1.1.2 service 514",
	"32.7s | content-anomaly | 1 | payload deviates from service baseline (len z=11.7, entropy z=0.0)",
	"32.701s | novel-service | 0.5 | no baseline for service port 514/TCP",
	"32.701s | novel-service | 0.45 | first contact 10.1.1.1 -> 10.1.1.2 service 514",
	"35s | novel-service | 0.45 | first contact 203.0.1.9 -> 10.1.1.1 service 80",
	"35.1505s | rate-anomaly | 0.9008291873963516 | source rate 302 pps exceeds 1.5x trained peak 201",
	"37s | novel-service | 0.45 | first contact 203.0.1.9 -> 10.1.1.1 service 80",
	"37.2645s | rate-anomaly | 0.9008291873963516 | source rate 302 pps exceeds 1.5x trained peak 201",
}

func formatAlerts(alerts []Alert) []string {
	out := make([]string, len(alerts))
	for i, a := range alerts {
		out[i] = strings.Join([]string{
			a.At.String(), a.Technique,
			strconv.FormatFloat(a.Severity, 'g', -1, 64), a.Reason,
		}, " | ")
	}
	return out
}

func TestAnomalyAlertsMatchGolden(t *testing.T) {
	e := NewAnomalyEngine()
	trainAnomaly(t, e)
	if err := e.SetSensitivity(1); err != nil {
		t.Fatal(err)
	}
	var alerts []Alert
	for _, s := range anomalyScript() {
		alerts = append(alerts, e.Inspect(s.p, s.at)...)
	}
	got := formatAlerts(alerts)
	if len(got) != len(anomalyScriptGolden) {
		t.Fatalf("%d alerts, golden has %d:\n%s", len(got), len(anomalyScriptGolden), strings.Join(got, "\n"))
	}
	for i := range got {
		if got[i] != anomalyScriptGolden[i] {
			t.Fatalf("alert %d:\n got %s\nwant %s", i, got[i], anomalyScriptGolden[i])
		}
	}
}

// A packet whose alerts are all suppressed costs no allocation: the
// reasons are formatted only for alerts that survive suppression.
func TestAnomalySuppressedInspectZeroAllocs(t *testing.T) {
	e := NewAnomalyEngine()
	trainAnomaly(t, e)
	if err := e.SetSensitivity(1); err != nil {
		t.Fatal(err)
	}
	p := tcpPkt(lanA, lanB, 514, packet.ACK|packet.PSH, []byte("cat /etc/shadow\n"))
	now := 30 * time.Second
	if len(e.Inspect(p, now)) == 0 {
		t.Fatal("probe packet raised no alert; suppression check is vacuous")
	}
	allocs := testing.AllocsPerRun(100, func() {
		now += 10 * time.Millisecond
		if alerts := e.Inspect(p, now); len(alerts) != 0 {
			t.Fatalf("alert escaped suppression: %v", alerts)
		}
	})
	if allocs != 0 {
		t.Fatalf("suppressed Inspect: %v allocs/op, want 0", allocs)
	}
}

// TestFirstContactReasonMatchesFmt holds the pair-novelty reason, built
// by appends, to the fmt rendering it replaced: both service-port
// choices, zero and maximal ports, and random addresses.
func TestFirstContactReasonMatchesFmt(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	pkts := []*packet.Packet{
		{Src: 0, Dst: packet.IPv4(255, 255, 255, 255), SrcPort: 0, DstPort: 65535},
		{Src: packet.IPv4(10, 1, 1, 1), Dst: packet.IPv4(10, 1, 1, 2), SrcPort: 514, DstPort: 40000},
		{Src: packet.IPv4(255, 255, 255, 255), Dst: 0, SrcPort: 65535, DstPort: 0},
	}
	for i := 0; i < 1000; i++ {
		pkts = append(pkts, &packet.Packet{Src: packet.Addr(r.Uint32()), Dst: packet.Addr(r.Uint32()),
			SrcPort: uint16(r.Intn(1 << 16)), DstPort: uint16(r.Intn(1 << 16))})
	}
	for _, p := range pkts {
		want := fmt.Sprintf("first contact %v -> %v service %d", p.Src, p.Dst, servicePort(p))
		if got := firstContactReason(p); got != want {
			t.Fatalf("firstContactReason = %q, want %q", got, want)
		}
	}
}
