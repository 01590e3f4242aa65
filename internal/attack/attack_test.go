package attack

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/traffic"
)

func testCtx(t *testing.T) (*Context, *[]*packet.Packet) {
	t.Helper()
	sim := simtime.New(4)
	var got []*packet.Packet
	ctx := &Context{
		Sim: sim,
		Rng: sim.Stream("attack"),
		Seq: &packet.SeqCounter{},
		Eps: traffic.Endpoints{
			External: []packet.Addr{packet.IPv4(203, 0, 1, 1), packet.IPv4(203, 0, 1, 2)},
			Cluster:  []packet.Addr{packet.IPv4(10, 1, 1, 1), packet.IPv4(10, 1, 1, 2), packet.IPv4(10, 1, 1, 3)},
		},
		Emit: func(p *packet.Packet) { got = append(got, p) },
	}
	return ctx, &got
}

func launchAndDrain(t *testing.T, s Scenario) (Incident, []*packet.Packet) {
	t.Helper()
	ctx, got := testCtx(t)
	inc := s.Launch(ctx, "atk-test")
	ctx.Sim.Run()
	return inc, *got
}

func checkLabels(t *testing.T, inc Incident, pkts []*packet.Packet, technique string) {
	t.Helper()
	if inc.Technique != technique {
		t.Fatalf("incident technique %q, want %q", inc.Technique, technique)
	}
	if len(pkts) != inc.Packets {
		t.Fatalf("emitted %d packets, incident says %d", len(pkts), inc.Packets)
	}
	if inc.Packets == 0 {
		t.Fatal("scenario emitted nothing")
	}
	for _, p := range pkts {
		if !p.Truth.Malicious || p.Truth.AttackID != "atk-test" || p.Truth.Technique != technique {
			t.Fatalf("bad ground truth on %v: %+v", p, p.Truth)
		}
		if p.Seq == 0 {
			t.Fatal("unassigned Seq")
		}
	}
}

func TestPortScan(t *testing.T) {
	inc, pkts := launchAndDrain(t, PortScan{})
	checkLabels(t, inc, pkts, TechPortScan)
	ports := make(map[uint16]bool)
	for _, p := range pkts {
		if !p.Flags.Has(packet.SYN) {
			t.Fatal("scan probe without SYN")
		}
		if p.Dst != inc.Victim {
			t.Fatal("probe aimed at wrong victim")
		}
		ports[p.DstPort] = true
	}
	if len(ports) < 50 {
		t.Fatalf("only %d distinct ports probed", len(ports))
	}
}

func TestPortScanIntensityScales(t *testing.T) {
	low, _ := launchAndDrain(t, PortScan{Strength: 0.5})
	high, _ := launchAndDrain(t, PortScan{Strength: 2})
	if high.Packets <= low.Packets {
		t.Fatalf("intensity did not scale: low=%d high=%d", low.Packets, high.Packets)
	}
}

func TestSYNFloodRate(t *testing.T) {
	inc, pkts := launchAndDrain(t, SYNFlood{Pps: 1000, Duration: time.Second})
	checkLabels(t, inc, pkts, TechSYNFlood)
	if len(pkts) != 1000 {
		t.Fatalf("flood emitted %d packets, want 1000", len(pkts))
	}
	for _, p := range pkts {
		if p.DstPort != 80 || !p.Flags.Has(packet.SYN) {
			t.Fatal("flood packet malformed")
		}
	}
}

func TestBruteForceContent(t *testing.T) {
	inc, pkts := launchAndDrain(t, BruteForce{Attempts: 10})
	checkLabels(t, inc, pkts, TechBruteForce)
	var sawGuess, sawReject bool
	for _, p := range pkts {
		s := string(p.Payload)
		if strings.Contains(s, "password: ") {
			sawGuess = true
		}
		if strings.Contains(s, "Login incorrect") {
			sawReject = true
		}
	}
	if !sawGuess || !sawReject {
		t.Fatalf("dialogue incomplete: guess=%v reject=%v", sawGuess, sawReject)
	}
	// Session must be framed: SYN first, FIN last.
	if !pkts[0].Flags.Has(packet.SYN) {
		t.Fatal("no handshake")
	}
	if !pkts[len(pkts)-1].Flags.Has(packet.FIN) {
		t.Fatal("no teardown")
	}
}

func TestExploitCarriesKnownSignatures(t *testing.T) {
	inc, pkts := launchAndDrain(t, Exploit{Count: 6})
	checkLabels(t, inc, pkts, TechExploit)
	matched := 0
	for _, p := range pkts {
		if len(p.Payload) == 0 {
			continue
		}
		for _, sig := range exploitPayloads {
			if bytes.Equal(p.Payload, sig) {
				matched++
				break
			}
		}
	}
	if matched != 6 {
		t.Fatalf("matched %d exploit payloads, want 6", matched)
	}
}

func TestInsiderStaysEastWest(t *testing.T) {
	inc, pkts := launchAndDrain(t, Insider{})
	checkLabels(t, inc, pkts, TechInsider)
	lan := packet.IPv4(10, 1, 0, 0)
	for _, p := range pkts {
		if p.Src&0xFFFF0000 != lan || p.Dst&0xFFFF0000 != lan {
			t.Fatalf("insider packet left the LAN: %v", p.Key())
		}
	}
	if inc.Attacker == inc.Victim {
		t.Fatal("attacker and victim identical")
	}
}

func TestMasqueradeEscalates(t *testing.T) {
	inc, pkts := launchAndDrain(t, Masquerade{Commands: 5})
	checkLabels(t, inc, pkts, TechMasquerade)
	var sawLogin, sawEscalation bool
	for _, p := range pkts {
		s := string(p.Payload)
		if strings.Contains(s, "login: operator") {
			sawLogin = true
		}
		if strings.Contains(s, "su root") || strings.Contains(s, ".rhosts") {
			sawEscalation = true
		}
	}
	if !sawLogin || !sawEscalation {
		t.Fatalf("login=%v escalation=%v", sawLogin, sawEscalation)
	}
}

func TestDNSTunnelShape(t *testing.T) {
	inc, pkts := launchAndDrain(t, DNSTunnel{Queries: 30})
	checkLabels(t, inc, pkts, TechTunnel)
	for _, p := range pkts {
		if p.Proto != packet.ProtoUDP || p.DstPort != 53 {
			t.Fatal("tunnel packet not DNS-shaped")
		}
		if len(p.Payload) < 60 {
			t.Fatalf("tunnel query suspiciously small: %d bytes", len(p.Payload))
		}
	}
	// Exfil runs from inside to outside.
	if inc.Attacker&0xFFFF0000 != packet.IPv4(10, 1, 0, 0) {
		t.Fatal("tunnel source not on the LAN")
	}
}

func TestStandardScenariosCoverAllTechniques(t *testing.T) {
	ss := StandardScenarios(1)
	want := map[string]bool{
		TechPortScan: true, TechSYNFlood: true, TechBruteForce: true,
		TechExploit: true, TechInsider: true, TechMasquerade: true, TechTunnel: true,
	}
	for _, s := range ss {
		delete(want, s.Technique())
	}
	if len(want) != 0 {
		t.Fatalf("techniques missing from StandardScenarios: %v", want)
	}
}

func TestCampaignSpreadAcross(t *testing.T) {
	ctx, got := testCtx(t)
	camp := NewCampaign(ctx)
	if err := camp.SpreadAcross(time.Second, 10*time.Second, StandardScenarios(0.5)); err != nil {
		t.Fatal(err)
	}
	ctx.Sim.Run()
	incs := camp.Incidents()
	if len(incs) != 7 {
		t.Fatalf("%d incidents, want 7", len(incs))
	}
	ids := make(map[string]bool)
	total := 0
	for _, inc := range incs {
		total += inc.Packets
		if ids[inc.ID] {
			t.Fatalf("duplicate incident id %s", inc.ID)
		}
		ids[inc.ID] = true
		if inc.Start < time.Second {
			t.Fatalf("incident %s started before the window", inc.ID)
		}
	}
	if total != len(*got) {
		t.Fatalf("incidents count %d attack packets, emitted %d", total, len(*got))
	}
}

func TestCampaignRejectsPastLaunch(t *testing.T) {
	ctx, _ := testCtx(t)
	ctx.Sim.MustSchedule(time.Second, func() {})
	ctx.Sim.Run()
	camp := NewCampaign(ctx)
	if err := camp.LaunchAt(500*time.Millisecond, PortScan{}); err == nil {
		t.Fatal("past launch accepted")
	}
}

func TestCampaignEmptyScenarios(t *testing.T) {
	ctx, _ := testCtx(t)
	camp := NewCampaign(ctx)
	if err := camp.SpreadAcross(0, time.Second, nil); err == nil {
		t.Fatal("empty scenario list accepted")
	}
}

// standardCampaign spreads StandardScenarios(1) across 10 s on a fresh
// Sim, ready to run.
func standardCampaign(emit traffic.Emit) *simtime.Sim {
	sim := simtime.New(4)
	ctx := &Context{
		Sim: sim, Rng: sim.Stream("attack"), Seq: &packet.SeqCounter{},
		Eps: traffic.Endpoints{
			External: []packet.Addr{packet.IPv4(203, 0, 1, 1)},
			Cluster:  []packet.Addr{packet.IPv4(10, 1, 1, 1), packet.IPv4(10, 1, 1, 2)},
		},
		Emit: emit,
	}
	if err := NewCampaign(ctx).SpreadAcross(0, 10*time.Second, StandardScenarios(1)); err != nil {
		panic(err)
	}
	return sim
}

func BenchmarkCampaignStandard(b *testing.B) {
	for i := 0; i < b.N; i++ {
		standardCampaign(func(p *packet.Packet) {}).Run()
	}
}

// TestStandardCampaignStream pins the standard campaign's packet stream:
// every emitted packet's emit time, identity, header and ground truth,
// in emit order. Building a packet when it fires rather than at launch
// must not move any of it.
func TestStandardCampaignStream(t *testing.T) {
	const (
		wantPackets = 8330
		wantDigest  = "55ef8826acc541ae0448dfa914d6865ecc492146ac80bdd3128287999a2e23da"
	)
	h := sha256.New()
	n := 0
	var sim *simtime.Sim
	sim = standardCampaign(func(p *packet.Packet) {
		n++
		fmt.Fprintf(h, "%d %d %d>%d %d>%d %d %d %d %t %q %q %x\n",
			sim.Now(), p.Seq, p.Src, p.Dst, p.SrcPort, p.DstPort, p.Proto, p.Flags, p.TTL,
			p.Truth.Malicious, p.Truth.AttackID, p.Truth.Technique, p.Payload)
	})
	sim.Run()
	if got := hex.EncodeToString(h.Sum(nil)); n != wantPackets || got != wantDigest {
		t.Fatalf("campaign emitted %d packets with digest %s, want %d with %s", n, got, wantPackets, wantDigest)
	}
}

func TestExploitEvasiveFragments(t *testing.T) {
	inc, pkts := launchAndDrain(t, Exploit{Count: 2, Evasive: true})
	checkLabels(t, inc, pkts, TechExploit)
	// No single data packet may contain a complete exploit payload.
	for _, p := range pkts {
		if len(p.Payload) == 0 {
			continue
		}
		if len(p.Payload) > 7 {
			t.Fatalf("evasive fragment of %d bytes", len(p.Payload))
		}
		for _, sig := range exploitPayloads {
			if bytes.Contains(p.Payload, sig) {
				t.Fatal("complete signature present in one packet")
			}
		}
	}
	// But concatenating the fragments per flow must reconstruct payloads.
	byFlow := make(map[uint16][]byte)
	for _, p := range pkts {
		byFlow[p.SrcPort] = append(byFlow[p.SrcPort], p.Payload...)
	}
	matched := 0
	for _, joined := range byFlow {
		for _, sig := range exploitPayloads {
			if bytes.Contains(joined, sig) {
				matched++
				break
			}
		}
	}
	if matched != 2 {
		t.Fatalf("reconstructed %d complete payloads, want 2", matched)
	}
}

func TestPortScanStealthInterval(t *testing.T) {
	fast, _ := launchAndDrain(t, PortScan{Ports: 10})
	slow, _ := launchAndDrain(t, PortScan{Ports: 10, Stealth: true})
	if slow.Duration <= fast.Duration*10 {
		t.Fatalf("stealth scan not slower: %v vs %v", slow.Duration, fast.Duration)
	}
}

func TestPingSweepCoversCluster(t *testing.T) {
	inc, pkts := launchAndDrain(t, PingSweep{Rounds: 2})
	checkLabels(t, inc, pkts, TechPingSweep)
	touched := map[packet.Addr]bool{}
	for _, p := range pkts {
		if p.Proto != packet.ProtoICMP {
			t.Fatal("sweep packet not ICMP")
		}
		touched[p.Dst] = true
	}
	if len(touched) != 3 {
		t.Fatalf("sweep touched %d hosts, want all 3", len(touched))
	}
	if len(pkts) != 6 {
		t.Fatalf("2 rounds over 3 hosts = %d packets, want 6", len(pkts))
	}
}

func TestExtendedScenariosSuperset(t *testing.T) {
	std := StandardScenarios(1)
	ext := ExtendedScenarios(1)
	if len(ext) != len(std)+2 {
		t.Fatalf("extended has %d scenarios, want %d", len(ext), len(std)+2)
	}
	techs := map[string]bool{}
	for _, s := range ext {
		techs[s.Technique()] = true
	}
	if !techs[TechPingSweep] {
		t.Fatal("extended campaign missing the ping sweep")
	}
}
