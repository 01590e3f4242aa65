package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// FuzzReadTrace drives the IDT2 stream reader over arbitrary input. It
// may not panic, hang, or allocate unboundedly; malformed input must
// surface as an error. Valid inputs that decode must re-encode and
// decode to the same record count (a cheap internal-consistency
// invariant that needs no reference decoder). A scan's record times
// never decrease, and a scan that ends cleanly must have decoded every
// statistic its footer claims. An accepted stream must replay the same
// through Replay and ReplayReader, and every packet ReplayReader emits
// must still read as emitted once the sim has drained.
func FuzzReadTrace(f *testing.F) {
	// Seed corpus: a retired v1 trace, a real v2 stream (two chunk
	// sizes), an empty v2 stream, assorted truncations, plain garbage,
	// streams whose footer lies about its body, one whose second chunk
	// starts before the first ends, and one of one-record chunks that
	// share a timestamp.
	tr := fuzzSeedTrace()
	v1 := legacyV1()
	var v2 bytes.Buffer
	if err := tr.WriteStream(&v2); err != nil {
		f.Fatal(err)
	}
	var v2small bytes.Buffer
	sw, err := NewWriter(&v2small, tr.Profile, tr.Seed)
	if err != nil {
		f.Fatal(err)
	}
	sw.chunkRecords = 3
	for _, r := range tr.Records {
		if err := sw.Append(r.At, r.Pk); err != nil {
			f.Fatal(err)
		}
	}
	sw.SetIncidents(tr.Incidents)
	if err := sw.Close(); err != nil {
		f.Fatal(err)
	}
	var v2empty bytes.Buffer
	ew, _ := NewWriter(&v2empty, "", 0)
	if err := ew.Close(); err != nil {
		f.Fatal(err)
	}

	f.Add(v1)
	f.Add(v2.Bytes())
	f.Add(v2small.Bytes())
	f.Add(v2empty.Bytes())
	for _, n := range []int{0, 4, 10, 17, 40} {
		if n < len(v1) {
			f.Add(v1[:n])
		}
		if n < v2.Len() {
			f.Add(v2.Bytes()[:n])
		}
	}
	f.Add(v2.Bytes()[:v2.Len()-trailerLen]) // no trailer: rejected at open
	f.Add([]byte("IDT2 but not really a trace"))
	f.Add([]byte("IDTR nor this"))
	f.Add([]byte{0xff, 0xfe, 0xfd})

	// Mutated seeds: single-byte corruptions of valid streams at
	// positions landing in the header, chunk bodies, the footer index,
	// and the trailer. Each must fail (or decode) without panicking or
	// allocating per the corrupt value.
	flip := func(b []byte, pos int) []byte {
		m := append([]byte(nil), b...)
		m[pos%len(m)] ^= 0xff
		return m
	}
	for _, pos := range []int{5, headerFixedLen + 3, v2.Len() / 3, v2.Len() / 2,
		v2.Len() - trailerLen - 9, v2.Len() - 3} {
		f.Add(flip(v2.Bytes(), pos))
		f.Add(flip(v2small.Bytes(), pos))
	}
	// Zero the first chunk's record-count varint (implausible-count path)
	// and max it out (count-vs-region plausibility path).
	firstChunkPayload := headerFixedLen + len(tr.Profile) + 5
	zeroed := append([]byte(nil), v2small.Bytes()...)
	zeroed[firstChunkPayload] = 0
	f.Add(zeroed)
	maxed := append([]byte(nil), v2small.Bytes()...)
	maxed[firstChunkPayload] = 0xff
	f.Add(maxed)
	f.Add(lyingFooterStream(f))
	lastAt := encodeStream(f, tr, 3)
	st := footerStats(lastAt)[40:]
	binary.BigEndian.PutUint64(st, binary.BigEndian.Uint64(st)+1) // LastAt off by 1 ns
	f.Add(lastAt)
	f.Add(regressingStream(f))
	f.Add(encodeStream(f, sameInstantTrace(), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := readTrace(bytes.NewReader(data))
		if err == nil {
			checkReencode(t, tr)
		}
		rd, rerr := NewReader(bytes.NewReader(data))
		if rerr != nil {
			return
		}
		var seen StreamStats
		clean := false
		for {
			c, err := rd.Next()
			if err != nil {
				clean = err == io.EOF
				break
			}
			for _, rec := range c.Records {
				p := rec.Pk
				if seen.Packets > 0 && rec.At < seen.LastAt {
					t.Fatalf("record at %v after one at %v", rec.At, seen.LastAt)
				}
				if seen.Packets == 0 {
					seen.FirstAt = rec.At
				}
				seen.LastAt = rec.At
				seen.Packets++
				seen.Bytes += uint64(p.WireLen())
				if p.Truth.Malicious {
					seen.MaliciousPkts++
				}
				if len(p.Payload) > 0 {
					seen.PayloadPackets++
				}
				seen.coverHost(p.Src)
				seen.coverHost(p.Dst)
			}
			seen.Chunks++
			c.Release()
		}
		_ = rd.Incidents()
		// The footer/body consistency invariant only holds for scans
		// that reached a clean EOF; a mid-stream decode error leaves
		// the statistics legitimately short.
		if !clean {
			return
		}
		if st := rd.Stats(); st != seen {
			t.Fatalf("footer claims %+v, records hold %+v", st, seen)
		}
		if err == nil {
			checkReplay(t, tr, data)
		}
	})
}

// checkReplay replays an accepted stream through Replay (from its
// decoded records) and ReplayReader, each on a fresh sim, and requires
// the same (time, seq, payload) emit sequence. Every packet
// ReplayReader emitted must still carry its seq and payload once its
// sim has drained, as a packet a link or sensor still held would have
// to. Replay alone may refuse the stream, when a record lies beyond the
// clock's range from the start; ReplayReader then must not panic.
func checkReplay(t *testing.T, tr *Trace, data []byte) {
	t.Helper()
	const start = time.Second
	type emitted struct {
		at      time.Duration
		seq     uint64
		payload string
	}
	var pkts []*packet.Packet
	observe := func(sim *simtime.Sim, out *[]emitted) func(p *packet.Packet) {
		return func(p *packet.Packet) {
			*out = append(*out, emitted{sim.Now(), p.Seq, string(p.Payload)})
			pkts = append(pkts, p)
		}
	}
	var want, got []emitted
	simA := simtime.New(1)
	errA := Replay(simA, tr, start, observe(simA, &want))
	if errA == nil {
		simA.Run()
	}
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	pkts = nil
	simB := simtime.New(1)
	rs, errB := ReplayReader(simB, rd, start, observe(simB, &got))
	if errB == nil {
		simB.Run()
		errB = rs.Err()
	}
	for i, p := range pkts {
		if p.Seq != got[i].seq || string(p.Payload) != got[i].payload {
			t.Fatalf("emit %d (seq %d, payload %q) reads seq %d, payload %q after the replay",
				i, got[i].seq, got[i].payload, p.Seq, p.Payload)
		}
	}
	if errA != nil {
		return
	}
	if errB != nil {
		t.Fatalf("Replay accepted the stream, ReplayReader failed: %v", errB)
	}
	if len(got) != len(want) {
		t.Fatalf("ReplayReader emitted %d packets, Replay %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("emit %d: ReplayReader %+v, Replay %+v", i, got[i], want[i])
		}
	}
}

// sameInstantTrace is six records at one instant, each with its own
// seq and payload.
func sameInstantTrace() *Trace {
	tr := &Trace{Profile: "same-instant", Seed: 1}
	for i := 0; i < 6; i++ {
		p := &packet.Packet{Seq: uint64(i + 1), Proto: packet.ProtoTCP, Payload: []byte{'r', byte('0' + i)}}
		if err := tr.Append(time.Millisecond, p); err != nil {
			panic(err)
		}
	}
	return tr
}

// FuzzServeFrameDecode drives the network frame decoder — the byte
// stream idsevald trusts least — over arbitrary input. The decoder may
// never panic, hang, or allocate past its growth-step bound; every
// failure must be a *FrameDecodeError carrying a sane position, and
// frames that do decode must survive a write/read round trip.
func FuzzServeFrameDecode(f *testing.F) {
	enc := func(typ byte, ord uint32, payload []byte) []byte {
		var buf bytes.Buffer
		if err := NewFrameWriter(&buf).Write(typ, ord, payload); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	hello := enc(FrameHello, 0, []byte(`{"name":"s1","seed":7}`))
	data := enc(FrameData, 1, bytes.Repeat([]byte{0x42}, 300))
	finish := enc(FrameFinish, 2, []byte(`{"chunks":2,"bytes":300}`))
	dialogue := append(append(append([]byte{}, hello...), data...), finish...)

	f.Add(dialogue)
	f.Add(hello)
	f.Add(enc(FrameData, 0, nil)) // empty payload
	for _, n := range []int{0, 3, 4, 5, 9, 12, 13, len(hello) - 1} {
		if n < len(hello) {
			f.Add(hello[:n])
		}
	}
	f.Add(dialogue[:len(hello)+7]) // torn mid-second-frame
	flip := func(b []byte, pos int) []byte {
		m := append([]byte(nil), b...)
		m[pos%len(m)] ^= 0xff
		return m
	}
	for _, pos := range []int{0, 4, 6, 10, 15, len(hello) - 2} {
		f.Add(flip(dialogue, pos))
	}
	// Length field lies: claims far more than follows.
	lying := append([]byte(nil), data...)
	lying[9], lying[10] = 0x03, 0xff
	f.Add(lying)
	f.Add([]byte("ISF2"))
	f.Add([]byte{0xff, 0xfe, 0xfd, 0xfc, 0xfb})

	f.Fuzz(func(t *testing.T, in []byte) {
		fr := NewFrameReader(bytes.NewReader(in), 1<<20)
		for {
			frm, err := fr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				var de *FrameDecodeError
				if !errors.As(err, &de) {
					t.Fatalf("decode error is not a FrameDecodeError: %v", err)
				}
				if de.Offset < 0 || de.Offset > int64(len(in)) {
					t.Fatalf("decode error offset %d outside input of %d bytes", de.Offset, len(in))
				}
				break
			}
			if cap(fr.buf) > len(frm.Payload)+2*frameReadStep {
				t.Fatalf("buffer cap %d far exceeds payload %d", cap(fr.buf), len(frm.Payload))
			}
			// Round trip: what decoded must re-encode to re-decodable bytes.
			var buf bytes.Buffer
			if err := NewFrameWriter(&buf).Write(frm.Type, frm.Ordinal, frm.Payload); err != nil {
				t.Fatalf("re-encode: %v", err)
			}
			back, err := NewFrameReader(bytes.NewReader(buf.Bytes()), 0).Next()
			if err != nil {
				t.Fatalf("re-decode: %v", err)
			}
			if back.Type != frm.Type || back.Ordinal != frm.Ordinal || !bytes.Equal(back.Payload, frm.Payload) {
				t.Fatal("frame round trip changed contents")
			}
		}
	})
}

// checkReencode round-trips a successfully decoded trace through the
// encoder and requires the result to decode to the same shape.
func checkReencode(t *testing.T, tr *Trace) {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteStream(&buf); err != nil {
		// Decoded traces can still be unencodable (e.g. a varint
		// timestamp past the writer's range); an error is fine.
		return
	}
	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("re-decode of re-encoded trace failed: %v", err)
	}
	n := 0
	for {
		c, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("re-decode chunk: %v", err)
		}
		n += len(c.Records)
		c.Release()
	}
	if n != len(tr.Records) {
		t.Fatalf("re-encode changed record count: %d -> %d", len(tr.Records), n)
	}
}

// fuzzSeedTrace builds a small hand-rolled trace exercising the format's
// branches: payloads and empty payloads, truth labels with shared and
// distinct attack IDs, TCP and UDP, equal timestamps.
func fuzzSeedTrace() *Trace {
	tr := &Trace{Profile: "fuzz-seed", Seed: 3}
	at := []time.Duration{0, time.Millisecond, time.Millisecond, 5 * time.Millisecond,
		time.Second, time.Second + 1, 2 * time.Second, 3 * time.Second}
	for i, t := range at {
		p := &packet.Packet{
			Seq:     uint64(i + 1),
			Src:     packet.IPv4(10, 1, 1, byte(i%3+1)),
			Dst:     packet.IPv4(203, 0, 1, 1),
			SrcPort: uint16(40000 + i),
			DstPort: 443,
			Proto:   packet.ProtoTCP,
			Flags:   packet.ACK,
			TTL:     64,
			Sent:    t,
		}
		switch i % 4 {
		case 0:
			p.Payload = []byte("GET / HTTP/1.1\r\n")
		case 1:
			p.Proto = packet.ProtoUDP
			p.Flags = 0
		case 2:
			p.Truth = packet.Label{Malicious: true, AttackID: "scan-1", Technique: "portscan"}
		case 3:
			p.Truth = packet.Label{Malicious: true, AttackID: "exp-2", Technique: "exploit"}
			p.Payload = bytes.Repeat([]byte{0x90}, 64)
		}
		if err := tr.Append(t, p); err != nil {
			panic(err)
		}
	}
	tr.Incidents = []attack.Incident{
		{ID: "scan-1", Technique: "portscan", Start: time.Millisecond, Duration: time.Second, Packets: 2,
			Attacker: packet.IPv4(203, 0, 1, 1), Victim: packet.IPv4(10, 1, 1, 1)},
		{ID: "exp-2", Technique: "exploit", Start: time.Second, Duration: 2 * time.Second, Packets: 2,
			Attacker: packet.IPv4(203, 0, 1, 1), Victim: packet.IPv4(10, 1, 1, 2)},
	}
	return tr
}
