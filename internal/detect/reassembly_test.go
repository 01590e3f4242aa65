package detect

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"repro/internal/packet"
)

func segPkt(flowPort uint16, flags packet.TCPFlags, payload string) *packet.Packet {
	return &packet.Packet{
		Src: packet.IPv4(203, 0, 1, 1), Dst: packet.IPv4(10, 1, 1, 1),
		SrcPort: flowPort, DstPort: 80, Proto: packet.ProtoTCP,
		Flags: flags, Payload: []byte(payload),
	}
}

func TestReassemblerJoinsAcrossSegments(t *testing.T) {
	r := NewReassembler(10)
	a := r.Extend(segPkt(1000, packet.ACK, "cgi-b"))
	if string(a) != "cgi-b" {
		t.Fatalf("first segment = %q", a)
	}
	b := r.Extend(segPkt(1000, packet.ACK, "in/phf?x"))
	if string(b) != "cgi-bin/phf?x" {
		t.Fatalf("joined = %q", b)
	}
}

func TestReassemblerFlowIsolation(t *testing.T) {
	r := NewReassembler(10)
	r.Extend(segPkt(1000, packet.ACK, "cgi-b"))
	other := r.Extend(segPkt(2000, packet.ACK, "in/phf"))
	if string(other) != "in/phf" {
		t.Fatalf("cross-flow contamination: %q", other)
	}
}

func TestReassemblerTailBounded(t *testing.T) {
	r := NewReassembler(4)
	r.Extend(segPkt(1000, packet.ACK, "0123456789"))
	joined := r.Extend(segPkt(1000, packet.ACK, "AB"))
	if string(joined) != "6789AB" {
		t.Fatalf("joined = %q, want tail-limited prefix", joined)
	}
}

func TestReassemblerFINReleasesFlow(t *testing.T) {
	r := NewReassembler(8)
	r.Extend(segPkt(1000, packet.ACK, "abc"))
	if len(r.flows) != 1 {
		t.Fatalf("%d flows tracked", len(r.flows))
	}
	r.Extend(segPkt(1000, packet.FIN|packet.ACK, "end"))
	if len(r.flows) != 0 {
		t.Fatalf("FIN did not release flow: %d", len(r.flows))
	}
}

func TestReassemblerIgnoresNonTCPAndEmpty(t *testing.T) {
	r := NewReassembler(8)
	udp := &packet.Packet{Proto: packet.ProtoUDP, Payload: []byte("xy")}
	if got := r.Extend(udp); string(got) != "xy" {
		t.Fatal("UDP payload altered")
	}
	empty := segPkt(1000, packet.ACK, "")
	if got := r.Extend(empty); len(got) != 0 {
		t.Fatal("empty payload altered")
	}
	if len(r.flows) != 0 {
		t.Fatal("stateless packets created flows")
	}
}

func TestReassemblerCapEviction(t *testing.T) {
	r := NewReassembler(8)
	r.MaxFlows = 4
	for i := 0; i < 10; i++ {
		r.Extend(segPkt(uint16(1000+i), packet.ACK, "abc"))
	}
	if len(r.flows) > 5 {
		t.Fatalf("%d flows tracked exceeds cap behaviour", len(r.flows))
	}
}

// The headline behaviour: a per-packet scanner misses a signature split
// across segments; the reassembling scanner catches it.
func TestEvasionDefeatedByReassembly(t *testing.T) {
	sig := "GET /cgi-bin/phf?Qalias=x HTTP/1.0\r\n\r\n"
	frags := []string{}
	for off := 0; off < len(sig); off += 7 {
		end := off + 7
		if end > len(sig) {
			end = len(sig)
		}
		frags = append(frags, sig[off:end])
	}

	run := func(e *SignatureEngine) int {
		alerts := 0
		now := time.Duration(0)
		for _, f := range frags {
			alerts += len(e.Inspect(segPkt(1234, packet.ACK, f), now))
			now += time.Millisecond
		}
		return alerts
	}
	perPacket := NewStandardSignatureEngine()
	perPacket.SetSensitivity(0.5)
	if got := run(perPacket); got != 0 {
		t.Fatalf("per-packet scanner alerted %d times on fragmented signature", got)
	}
	reassembling := NewReassemblingSignatureEngine()
	reassembling.SetSensitivity(0.5)
	if got := run(reassembling); got == 0 {
		t.Fatal("reassembling scanner missed the fragmented signature")
	}
}

func TestReassemblyCostsMore(t *testing.T) {
	plain := NewStandardSignatureEngine()
	re := NewReassemblingSignatureEngine()
	p := segPkt(1, packet.ACK, "hello")
	if re.CostPerPacket(p) <= plain.CostPerPacket(p) {
		t.Fatal("reassembly should cost more per packet")
	}
	if !re.Reassembling() || plain.Reassembling() {
		t.Fatal("Reassembling() flags wrong")
	}
}

func TestStealthySingleByteFragments(t *testing.T) {
	// Even 1-byte segments cannot evade the reassembling scanner.
	e := NewReassemblingSignatureEngine()
	e.SetSensitivity(0.5)
	sig := "cgi-bin/phf"
	alerts := 0
	for i := 0; i < len(sig); i++ {
		alerts += len(e.Inspect(segPkt(99, packet.ACK, string(sig[i])), time.Duration(i)*time.Millisecond))
	}
	if alerts == 0 {
		t.Fatal("single-byte fragmentation evaded reassembly")
	}
}

// --- Batching interaction -------------------------------------------------
//
// The batched-scan contract (Prescanning) says batch boundaries can never
// change alert output. A reassembling engine prescans each payload alone
// and, at inspection, advances the flow's tail and scans only the seam
// where the tail meets the payload (DESIGN §12.3).

// feedOneBatch drives an engine the way a sensor with a deep queue does:
// one PrescanBatch over every payload, then per-packet inspection against
// the memoized match sets (falling back to scalar Inspect if the engine
// refuses the prescan).
func feedOneBatch(e *SignatureEngine, pkts []*packet.Packet) []Alert {
	payloads := make([][]byte, len(pkts))
	for i, p := range pkts {
		payloads[i] = p.Payload
	}
	var out []Alert
	now := 10 * time.Millisecond
	if e.PrescanBatch(payloads) {
		for i, p := range pkts {
			out = append(out, e.InspectPrescanned(p, now, i)...)
			now += 50 * time.Microsecond
		}
		return out
	}
	for _, p := range pkts {
		out = append(out, e.Inspect(p, now)...)
		now += 50 * time.Microsecond
	}
	return out
}

// feedPerPacket drives an engine the way an idle sensor does: every scan
// cycle sees a queue of one, so each packet is its own batch.
func feedPerPacket(e *SignatureEngine, pkts []*packet.Packet) []Alert {
	var out []Alert
	now := 10 * time.Millisecond
	for _, p := range pkts {
		if e.PrescanBatch([][]byte{p.Payload}) {
			out = append(out, e.InspectPrescanned(p, now, 0)...)
		} else {
			out = append(out, e.Inspect(p, now)...)
		}
		now += 50 * time.Microsecond
	}
	return out
}

// feedScalar is the reference: plain per-packet Inspect, no prescanning.
func feedScalar(e *SignatureEngine, pkts []*packet.Packet) []Alert {
	var out []Alert
	now := 10 * time.Millisecond
	for _, p := range pkts {
		out = append(out, e.Inspect(p, now)...)
		now += 50 * time.Microsecond
	}
	return out
}

// TestBatchBoundariesDoNotChangeAlerts pins the Prescanning equivalence
// contract on the stock engine: the same packet sequence produces
// byte-identical alerts whether the payloads are scanned as one batch,
// one batch per packet, or never prescanned at all — including repeated
// same-flow attacks (suppression state) and threshold-rule traffic.
func TestBatchBoundariesDoNotChangeAlerts(t *testing.T) {
	mkPkts := func() []*packet.Packet {
		syn := segPkt(4000, packet.SYN, "")
		return []*packet.Packet{
			segPkt(1000, packet.ACK, "GET /cgi-bin/phf?Qalias=x HTTP/1.0"),
			segPkt(2000, packet.ACK, "status report nominal, nothing here"),
			segPkt(1000, packet.ACK, "GET /cgi-bin/phf?Qalias=x HTTP/1.0"), // same flow: suppression
			segPkt(3000, packet.ACK, "cat /etc/passwd then > /.rhosts"),
			segPkt(5000, packet.ACK, ""),
			syn,
		}
	}
	a := feedOneBatch(NewStandardSignatureEngine(), mkPkts())
	b := feedPerPacket(NewStandardSignatureEngine(), mkPkts())
	c := feedScalar(NewStandardSignatureEngine(), mkPkts())
	if !reflect.DeepEqual(a, c) {
		t.Fatalf("one-batch feed diverged from scalar:\n%v\nvs\n%v", a, c)
	}
	if !reflect.DeepEqual(b, c) {
		t.Fatalf("per-packet batch feed diverged from scalar:\n%v\nvs\n%v", b, c)
	}
	if len(c) == 0 {
		t.Fatal("test traffic raised no alerts; equivalence check is vacuous")
	}
}

// TestReassemblySegmentsAcrossBatches feeds a pattern split across two
// TCP segments through all three feed shapes: alerts must be identical
// (each prescanned shape finds the split pattern in the seam) and the
// cross-segment match must fire, proving batching cannot cost the engine
// its reassembly catches.
func TestReassemblySegmentsAcrossBatches(t *testing.T) {
	mkPkts := func() []*packet.Packet {
		return []*packet.Packet{
			segPkt(1000, packet.ACK, "GET /cgi-b"),
			segPkt(2000, packet.ACK, "unrelated flow chatter"),
			segPkt(1000, packet.ACK, "in/phf?Qalias=x HTTP/1.0"), // completes cgi-bin/phf
		}
	}
	a := feedOneBatch(NewReassemblingSignatureEngine(), mkPkts())
	b := feedPerPacket(NewReassemblingSignatureEngine(), mkPkts())
	c := feedScalar(NewReassemblingSignatureEngine(), mkPkts())
	if !reflect.DeepEqual(a, c) || !reflect.DeepEqual(b, c) {
		t.Fatalf("reassembly feeds diverged:\none-batch %v\nper-packet %v\nscalar %v", a, b, c)
	}
	if len(c) == 0 {
		t.Fatal("cross-segment pattern raised no alert")
	}
	// The engine without reassembly must NOT see the split pattern —
	// the alerts above really are reassembly catches.
	if got := feedOneBatch(NewStandardSignatureEngine(), mkPkts()); len(got) != 0 {
		t.Fatalf("non-reassembling engine alerted on split segments: %v", got)
	}
}

// TestInspectPrescannedFallsBackWhenReassembling pins the defensive
// fallback: a reassembling engine asked for an entry its last prescan
// does not hold takes the scalar path and produces exactly Inspect's
// output.
func TestInspectPrescannedFallsBackWhenReassembling(t *testing.T) {
	p := segPkt(1000, packet.ACK, "GET /cgi-bin/phf HTTP/1.0")
	got := NewReassemblingSignatureEngine().InspectPrescanned(p, time.Millisecond, 0)
	want := NewReassemblingSignatureEngine().Inspect(p, time.Millisecond)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("fallback diverged: %v vs %v", got, want)
	}
	if len(want) == 0 {
		t.Fatal("probe packet raised no alert; fallback check is vacuous")
	}
}

// --- Differential fuzzing ---------------------------------------------------

// naiveReassembler is the reference Extend is checked against: it keeps
// every flow's whole stream, concatenating into a fresh slice per
// segment, and answers with the stream's last tailLen+len(payload)
// bytes. It shares no buffer with the real reassembler.
type naiveReassembler struct {
	tailLen, maxFlows int
	streams           map[packet.FlowKey][]byte
}

func (n *naiveReassembler) extend(p *packet.Packet) []byte {
	if n.tailLen == 0 || p.Proto != packet.ProtoTCP || len(p.Payload) == 0 {
		return p.Payload
	}
	key := p.Key()
	prev, ok := n.streams[key]
	if !ok && len(n.streams) >= n.maxFlows {
		n.streams = make(map[packet.FlowKey][]byte)
	}
	stream := make([]byte, 0, len(prev)+len(p.Payload))
	stream = append(append(stream, prev...), p.Payload...)
	n.streams[key] = stream
	if p.Flags.Has(packet.FIN) || p.Flags.Has(packet.RST) {
		delete(n.streams, key)
	}
	if keep := n.tailLen + len(p.Payload); len(stream) > keep {
		return stream[len(stream)-keep:]
	}
	return stream
}

// FuzzReassemblerEquivalence drives interleaved flows through Extend
// and the naive reference — random segmentation, FIN/RST teardown, UDP
// and empty segments, and MaxFlows eviction — and requires identical
// joined bytes and flow counts after every segment. The op stream
// frames each segment as a control byte (flow id in the low 3 bits,
// 0x08 FIN, 0x10 RST, 0x20 UDP) followed by a length byte and payload.
func FuzzReassemblerEquivalence(f *testing.F) {
	f.Add(uint8(10), uint8(7), []byte("\x00\x05cgi-b\x01\x04xxxx\x00\x08in/phf?x"))
	f.Add(uint8(4), uint8(1), []byte("\x00\x0a0123456789\x01\x02AB\x00\x02CD\x02\x03abc\x00\x01Z"))
	f.Add(uint8(8), uint8(7), []byte("\x00\x03abc\x08\x03end\x00\x03new\x10\x02rs\x00\x02ok"))
	f.Add(uint8(3), uint8(2), []byte("\x20\x02xy\x00\x00\x01\x01a\x02\x01b\x03\x01c\x04\x01d\x01\x01e"))
	f.Add(uint8(0), uint8(7), []byte("\x00\x04abcd\x00\x04efgh"))
	f.Add(uint8(1), uint8(0), []byte("\x00\x01a\x00\x01b\x00\x01c\x01\x01d\x00\x01e"))

	f.Fuzz(func(t *testing.T, tailLen, maxFlows uint8, ops []byte) {
		tl := int(tailLen % 48)
		mf := int(maxFlows%8) + 1
		r := NewReassembler(tl)
		r.MaxFlows = mf
		ref := &naiveReassembler{tailLen: tl, maxFlows: mf, streams: make(map[packet.FlowKey][]byte)}
		for seg := 0; len(ops) >= 2; seg++ {
			ctl, n := ops[0], int(ops[1])%64
			ops = ops[2:]
			if n > len(ops) {
				n = len(ops)
			}
			var flags packet.TCPFlags = packet.ACK
			if ctl&0x08 != 0 {
				flags |= packet.FIN
			}
			if ctl&0x10 != 0 {
				flags |= packet.RST
			}
			p := segPkt(1000+uint16(ctl&0x07), flags, string(ops[:n]))
			if ctl&0x20 != 0 {
				p.Proto = packet.ProtoUDP
			}
			ops = ops[n:]
			got := r.Extend(p)
			want := ref.extend(p)
			if !bytes.Equal(got, want) {
				t.Fatalf("segment %d (ctl %#x): Extend %q, reference %q", seg, ctl, got, want)
			}
			if len(r.flows) != len(ref.streams) {
				t.Fatalf("segment %d: %d flows tracked, reference %d", seg, len(r.flows), len(ref.streams))
			}
		}
	})
}

// FuzzReassemblingPrescanEquivalence holds the seam (DESIGN §12.3): two
// reassembling twins that prescan through one shared memo, each in
// batches of its own shape, must raise exactly a scalar engine's
// alerts, packet for packet. Segments are framed as in
// FuzzReassemblerEquivalence — a control byte (flow id in the low 3
// bits, 0x08 FIN, 0x10 RST, 0x20 UDP), a length byte and the payload —
// and control bits 0x40 and 0x80 end the first and the second twin's
// batch after the segment. The segments run twice, so the second pass
// meets every payload identity again, and all three engines evict
// their flow tables at one MaxFlows. No alert is suppressed, so a wrong
// match set cannot hide behind a holdoff.
func FuzzReassemblingPrescanEquivalence(f *testing.F) {
	seg := func(ctl byte, payload string) []byte {
		return append([]byte{ctl, byte(len(payload))}, payload...)
	}
	// A pattern as long as the corpus allows split at every seam
	// offset, on rotating flows closed by FIN, in two batch shapes.
	const phf = "cgi-bin/phf"
	var split []byte
	for k := 1; k < len(phf); k++ {
		flow := byte(k % 8)
		split = append(split, seg(flow|0x40*byte(k%3/2), "xx"+phf[:k])...)
		split = append(split, seg(flow|0x08|0x80*byte(k%2), phf[k:]+"yy")...)
	}
	f.Add([]byte("\x0acgi-bin/phf\x02bin"), uint8(3), uint8(7), split)
	// A pattern wholly inside the tail, which the joined scan finds
	// again on the next segment.
	f.Add([]byte("\x05abcdef\x01ab"), uint8(0), uint8(7),
		bytes.Join([][]byte{seg(0, "xxabx"), seg(0x40, "zzzzzz"), seg(0x08, "q")}, nil))
	// Tails shorter than tailLen, then a UDP and an empty segment.
	f.Add([]byte("\x0acgi-bin/phf"), uint8(7), uint8(7),
		bytes.Join([][]byte{seg(1, "cg"), seg(0x81, "i-b"), seg(0x41, "in/phf"), seg(0x22, phf), seg(0xc2, "")}, nil))
	// One tracked flow: the second flow evicts the first's tail.
	f.Add([]byte("\x0acgi-bin/phf"), uint8(1), uint8(0),
		bytes.Join([][]byte{seg(0, "cgi-b"), seg(1, "zz"), seg(0xc0, "in/phf")}, nil))

	f.Fuzz(func(t *testing.T, spec []byte, capacity, maxFlows uint8, ops []byte) {
		pats := fuzzPatterns(spec)
		rules := make([]ContentRule, len(pats))
		for i, pat := range pats {
			rules[i] = ContentRule{Name: fmt.Sprint(i), Technique: "fuzz", Pattern: pat, Severity: 1, Fidelity: 1}
		}
		newEngine := func() *SignatureEngine {
			e := NewSignatureEngine(rules, nil)
			e.EnableReassembly()
			e.reassembler.MaxFlows = int(maxFlows%8) + 1
			e.SuppressWindow = 0
			return e
		}
		ref := newEngine()
		memo := NewScanMemo(int(capacity)%8 + 1)
		twins := [2]*SignatureEngine{newEngine(), newEngine()}
		for _, tw := range twins {
			tw.ShareScans(memo)
		}

		var pkts []*packet.Packet
		var ends [2][]bool // ends[w][i]: twin w's batch ends after segment i
		for len(ops) >= 2 && len(pkts) < 64 {
			ctl, n := ops[0], min(int(ops[1])%64, len(ops)-2)
			ops = ops[2:]
			var flags packet.TCPFlags = packet.ACK
			if ctl&0x08 != 0 {
				flags |= packet.FIN
			}
			if ctl&0x10 != 0 {
				flags |= packet.RST
			}
			p := segPkt(1000+uint16(ctl&0x07), flags, "")
			p.Payload = ops[:n:n]
			if ctl&0x20 != 0 {
				p.Proto = packet.ProtoUDP
			}
			ops = ops[n:]
			pkts = append(pkts, p)
			ends[0] = append(ends[0], ctl&0x40 != 0)
			ends[1] = append(ends[1], ctl&0x80 != 0)
		}
		seq := append(pkts[:len(pkts):len(pkts)], pkts...)
		var from, to [2]int
		var batch [][]byte
		for k, p := range seq {
			now := time.Duration(k) * time.Millisecond
			want := ref.Inspect(p, now)
			for w, tw := range twins {
				if k == to[w] {
					from[w], to[w] = k, k+1
					for to[w] < len(seq) && !ends[w][(to[w]-1)%len(pkts)] {
						to[w]++
					}
					batch = batch[:0]
					for _, q := range seq[k:to[w]] {
						batch = append(batch, q.Payload)
					}
					if !tw.PrescanBatch(batch) {
						t.Fatal("a reassembling engine refused to prescan")
					}
				}
				if got := tw.InspectPrescanned(p, now, k-from[w]); !reflect.DeepEqual(got, want) {
					t.Fatalf("segment %d (%q), twin %d: prescanned alerts %v, scalar %v", k, p.Payload, w, got, want)
				}
			}
		}
	})
}

// In steady state — a tracked flow with a full tail — Extend joins into
// its reused buffer and allocates nothing.
func TestReassemblerExtendSteadyStateZeroAllocs(t *testing.T) {
	r := NewReassembler(16)
	p := segPkt(1000, packet.ACK, "GET /cgi-bin/phf?Qalias=x HTTP/1.0\r\n")
	r.Extend(p)
	r.Extend(p)
	if allocs := testing.AllocsPerRun(100, func() { r.Extend(p) }); allocs != 0 {
		t.Fatalf("steady-state Extend: %v allocs/op, want 0", allocs)
	}
}
