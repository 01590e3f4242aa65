package trace

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/traffic"
)

// traceEqual asserts two traces carry identical records, incidents, and
// metadata.
func traceEqual(t *testing.T, want, got *Trace) {
	t.Helper()
	if got.Profile != want.Profile || got.Seed != want.Seed {
		t.Fatalf("meta mismatch: %q/%d vs %q/%d", got.Profile, got.Seed, want.Profile, want.Seed)
	}
	if len(got.Records) != len(want.Records) {
		t.Fatalf("records %d vs %d", len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		a, b := want.Records[i], got.Records[i]
		if a.At != b.At {
			t.Fatalf("record %d time %v vs %v", i, a.At, b.At)
		}
		if a.Pk.Seq != b.Pk.Seq || a.Pk.Sent != b.Pk.Sent ||
			a.Pk.Src != b.Pk.Src || a.Pk.Dst != b.Pk.Dst ||
			a.Pk.SrcPort != b.Pk.SrcPort || a.Pk.DstPort != b.Pk.DstPort ||
			a.Pk.Proto != b.Pk.Proto || a.Pk.Flags != b.Pk.Flags || a.Pk.TTL != b.Pk.TTL {
			t.Fatalf("record %d header mismatch: %+v vs %+v", i, a.Pk, b.Pk)
		}
		if !bytes.Equal(a.Pk.Payload, b.Pk.Payload) {
			t.Fatalf("record %d payload mismatch", i)
		}
		if a.Pk.Truth != b.Pk.Truth {
			t.Fatalf("record %d truth %+v vs %+v", i, a.Pk.Truth, b.Pk.Truth)
		}
	}
	if len(got.Incidents) != len(want.Incidents) {
		t.Fatalf("incidents %d vs %d", len(got.Incidents), len(want.Incidents))
	}
	for i := range want.Incidents {
		if got.Incidents[i] != want.Incidents[i] {
			t.Fatalf("incident %d mismatch: %+v vs %+v", i, got.Incidents[i], want.Incidents[i])
		}
	}
}

func encodeStream(t testing.TB, tr *Trace, chunkRecords int) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := NewWriter(&buf, tr.Profile, tr.Seed)
	if err != nil {
		t.Fatal(err)
	}
	sw.chunkRecords = chunkRecords
	for _, r := range tr.Records {
		if err := sw.Append(r.At, r.Pk); err != nil {
			t.Fatal(err)
		}
	}
	sw.SetIncidents(tr.Incidents)
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStreamRoundTripViaReadBinary checks that WriteStream output starts
// with the IDT2 magic and reads back whole through readTrace.
func TestStreamRoundTripViaReadBinary(t *testing.T) {
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if err := tr.WriteStream(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 4 || binary.BigEndian.Uint32(buf.Bytes()) != magic2 {
		t.Fatal("stream does not start with IDT2 magic")
	}
	got, err := readTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	traceEqual(t, tr, got)
}

func TestStreamReaderChunksAndStats(t *testing.T) {
	tr := sampleTrace(t)
	data := encodeStream(t, tr, 64)
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	st := rd.Stats()
	if st.Packets != uint64(len(tr.Records)) {
		t.Fatalf("stats packets %d, want %d", st.Packets, len(tr.Records))
	}
	s := tr.Summarize()
	if st.Bytes != uint64(s.Bytes) || st.MaliciousPkts != uint64(s.MaliciousPkts) {
		t.Fatalf("stats %+v vs summary %+v", st, s)
	}
	if st.Duration() != s.Duration {
		t.Fatalf("duration %v vs %v", st.Duration(), s.Duration)
	}
	// sampleTrace talks among 10.1.1.1-2 and 203.0.1.1: plan hosts 0-1
	// and external host 0.
	if c, e := tr.PlanHosts(); st.ClusterHosts != 2 || st.ExternalHosts != 1 || c != 2 || e != 1 {
		t.Fatalf("footer hosts %d/%d, PlanHosts %d/%d, want 2/1", st.ClusterHosts, st.ExternalHosts, c, e)
	}
	wantChunks := (len(tr.Records) + 63) / 64
	if st.Chunks != wantChunks {
		t.Fatalf("chunks %d, want %d", st.Chunks, wantChunks)
	}
	if len(rd.Incidents()) != len(tr.Incidents) {
		t.Fatalf("incidents %d, want %d (up front)", len(rd.Incidents()), len(tr.Incidents))
	}
	if rd.Profile() != tr.Profile || rd.Seed() != tr.Seed {
		t.Fatal("header meta mismatch")
	}

	var got []Record
	chunks := 0
	for {
		c, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Records) == 0 || len(c.Records) > 64 {
			t.Fatalf("chunk %d has %d records", chunks, len(c.Records))
		}
		if c.FirstAt() != c.Records[0].At || c.LastAt() != c.Records[len(c.Records)-1].At {
			t.Fatal("chunk time bounds wrong")
		}
		// Deep-copy before release: released chunk memory is recycled.
		for _, r := range c.Records {
			pk := *r.Pk
			pk.Payload = append([]byte(nil), r.Pk.Payload...)
			got = append(got, Record{At: r.At, Pk: &pk})
		}
		chunks++
		c.Release()
	}
	if chunks != wantChunks {
		t.Fatalf("decoded %d chunks, want %d", chunks, wantChunks)
	}
	if rd.ChunksRead() != wantChunks {
		t.Fatalf("ChunksRead %d, want %d", rd.ChunksRead(), wantChunks)
	}
	traceEqual(t, tr, &Trace{
		Records: got, Incidents: rd.Incidents(),
		Profile: rd.Profile(), Seed: rd.Seed(),
	})
}

// emitObservation is what a replay test records at emit time (payload
// summarized, since chunk memory may be recycled afterwards).
type emitObservation struct {
	at         time.Duration
	seq        uint64
	payloadLen int
	payloadSum uint32
}

func observeReplay(t *testing.T, schedule func(sim *simtime.Sim, emit func(p *packet.Packet))) []emitObservation {
	t.Helper()
	sim := simtime.New(7)
	var obs []emitObservation
	schedule(sim, func(p *packet.Packet) {
		var sum uint32
		for _, b := range p.Payload {
			sum = sum*31 + uint32(b)
		}
		obs = append(obs, emitObservation{at: sim.Now(), seq: p.Seq, payloadLen: len(p.Payload), payloadSum: sum})
	})
	sim.Run()
	return obs
}

func TestReplayReaderMatchesInMemoryReplay(t *testing.T) {
	tr := sampleTrace(t)
	data := encodeStream(t, tr, 50)
	want := observeReplay(t, func(sim *simtime.Sim, emit func(p *packet.Packet)) {
		if err := Replay(sim, tr, time.Second, emit); err != nil {
			t.Fatal(err)
		}
	})
	var rs *ReplayStream
	got := observeReplay(t, func(sim *simtime.Sim, emit func(p *packet.Packet)) {
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		rs, err = ReplayReader(sim, rd, time.Second, emit)
		if err != nil {
			t.Fatal(err)
		}
	})
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d packets, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("emit %d differs: %+v vs %+v", i, got[i], want[i])
		}
	}
}

// TestReplayReaderTieOrder pins how replayed records interleave with
// another event source at shared instants, which a replay alone on its
// sim cannot show. The trace's 3-record chunks share a timestamp across
// every boundary (2, 3 and 5 ms). The source schedules an event at each
// record's time before the replay starts and, from each emit, one at
// the current instant and one at the time of the record two places on.
// The reference replays each chunk with Replay from an event at its
// predecessor's last record, scheduled right after that predecessor's
// records: the order ReplayReader promises, since a chunk's records
// take their tie-break numbers in trace order when the chunk decodes.
// A whole-trace Replay numbers every record up front instead, so an
// event scheduled from emit for the time of a record in a chunk not yet
// decoded fires after that record there and before it here.
func TestReplayReaderTieOrder(t *testing.T) {
	tr := &Trace{Profile: "ties", Seed: 1}
	for i, at := range []time.Duration{0, 1, 2, 2, 2, 3, 3, 5, 5, 5} {
		if err := tr.Append(at*time.Millisecond, &packet.Packet{Seq: uint64(i), Payload: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	const chunk, start = 3, time.Second
	data := encodeStream(t, tr, chunk)

	run := func(replay func(sim *simtime.Sim, emit func(p *packet.Packet))) []string {
		sim := simtime.New(1)
		var log []string
		note := func(what string, seq uint64) simtime.Handler {
			return func() { log = append(log, fmt.Sprintf("%v %s#%d", sim.Now()-start, what, seq)) }
		}
		for _, r := range tr.Records {
			if _, err := sim.ScheduleAt(start+r.At, note("pre", r.Pk.Seq)); err != nil {
				t.Fatal(err)
			}
		}
		replay(sim, func(p *packet.Packet) {
			log = append(log, fmt.Sprintf("%v rec#%d payload %x", sim.Now()-start, p.Seq, p.Payload))
			sim.MustSchedule(0, note("now", p.Seq))
			if k := int(p.Seq) + 2; k < len(tr.Records) {
				if _, err := sim.ScheduleAt(start+tr.Records[k].At, note("ahead", p.Seq)); err != nil {
					t.Fatal(err)
				}
			}
		})
		sim.Run()
		return log
	}

	want := run(func(sim *simtime.Sim, emit func(p *packet.Packet)) {
		var play func(i int)
		play = func(i int) {
			c := &Trace{Records: tr.Records[i:min(i+chunk, len(tr.Records))]}
			if err := Replay(sim, c, start+c.Records[0].At, emit); err != nil {
				t.Fatal(err)
			}
			if next := i + chunk; next < len(tr.Records) {
				if _, err := sim.ScheduleAt(start+c.Records[len(c.Records)-1].At, func() { play(next) }); err != nil {
					t.Fatal(err)
				}
			}
		}
		play(0)
	})
	var rs *ReplayStream
	got := run(func(sim *simtime.Sim, emit func(p *packet.Packet)) {
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if rs, err = ReplayReader(sim, rd, start, emit); err != nil {
			t.Fatal(err)
		}
	})
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d is %q, want %q\ngot:  %q\nwant: %q", i, got[i], want[i], got, want)
		}
	}
}

// TestReplayReaderKeepsPacketsInFlight replays 20 one-record chunks
// 1 µs apart and re-reads each emitted packet 50 µs later, as a link or
// a sensor ring holding it would. Every packet must still carry its own
// record's header and payload then: a replay that hands a chunk's
// buffers back to the reader lets a later record overwrite a packet
// still in flight.
func TestReplayReaderKeepsPacketsInFlight(t *testing.T) {
	tr := &Trace{Profile: "in-flight", Seed: 1}
	for i := 0; i < 20; i++ {
		p := &packet.Packet{Seq: uint64(i + 1), SrcPort: uint16(1000 + i), Payload: []byte(fmt.Sprintf("record %02d", i))}
		if err := tr.Append(time.Duration(i)*time.Microsecond, p); err != nil {
			t.Fatal(err)
		}
	}
	rd, err := NewReader(bytes.NewReader(encodeStream(t, tr, 1)))
	if err != nil {
		t.Fatal(err)
	}
	sim := simtime.New(1)
	var checked int
	var bad []string
	rs, err := ReplayReader(sim, rd, 0, func(p *packet.Packet) {
		seq, port, payload := p.Seq, p.SrcPort, string(p.Payload)
		sim.MustSchedule(50*time.Microsecond, func() {
			checked++
			if p.Seq != seq || p.SrcPort != port || string(p.Payload) != payload {
				bad = append(bad, fmt.Sprintf("seq %d (%q) reads seq %d (%q)", seq, payload, p.Seq, p.Payload))
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if err := rs.Err(); err != nil {
		t.Fatal(err)
	}
	if checked != len(tr.Records) {
		t.Fatalf("re-read %d packets, want %d", checked, len(tr.Records))
	}
	if len(bad) > 0 {
		t.Fatalf("%d of %d packets changed while in flight: %s", len(bad), checked, strings.Join(bad, "; "))
	}
}

func TestStreamRecorderMatchesRecorder(t *testing.T) {
	// The same deterministic generation run captured through the
	// in-memory Recorder and the streaming recorder must produce
	// identical traces: streaming capture loses nothing.
	want := sampleTrace(t)
	var buf bytes.Buffer
	sw, err := NewWriter(&buf, want.Profile, want.Seed)
	if err != nil {
		t.Fatal(err)
	}
	sw.chunkRecords = 100
	sim := simtime.New(21)
	srec := NewStreamRecorder(sim, sw)
	seq := &packet.SeqCounter{}
	eps := traffic.Endpoints{
		External: []packet.Addr{packet.IPv4(203, 0, 1, 1)},
		Cluster:  []packet.Addr{packet.IPv4(10, 1, 1, 1), packet.IPv4(10, 1, 1, 2)},
	}
	gen, err := traffic.NewGenerator(sim, traffic.EcommerceEdge(), eps, seq, srec.Emit)
	if err != nil {
		t.Fatal(err)
	}
	gen.Start(40)
	ctx := &attack.Context{Sim: sim, Rng: sim.Stream("attack"), Seq: seq, Eps: eps, Emit: srec.Emit}
	camp := attack.NewCampaign(ctx)
	if err := camp.SpreadAcross(time.Second, 3*time.Second, []attack.Scenario{
		attack.PortScan{Ports: 30}, attack.Exploit{Count: 2},
	}); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(5 * time.Second)
	gen.Stop()
	sim.Run()
	if err := srec.Err(); err != nil {
		t.Fatal(err)
	}
	sw.SetIncidents(camp.Incidents())
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := readTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	traceEqual(t, want, got)
}

func TestStreamRejectsCorrupt(t *testing.T) {
	tr := sampleTrace(t)
	data := encodeStream(t, tr, 64)

	// Truncations at every interesting boundary must error, not panic.
	for _, n := range []int{0, 3, 9, 20, len(data) / 2, len(data) - 5} {
		trunc := data[:n]
		rd, err := NewReader(bytes.NewReader(trunc))
		if err != nil {
			continue
		}
		for {
			c, err := rd.Next()
			if err != nil {
				break
			}
			c.Release()
		}
	}

	// Flipping the version is rejected.
	bad := append([]byte(nil), data...)
	bad[7] = 99
	if _, err := NewReader(bytes.NewReader(bad)); err == nil {
		t.Fatal("future stream version accepted")
	}

	// Corrupting a chunk's interior fails decode with an error.
	bad = append([]byte(nil), data...)
	// Find the first chunk block (right after the header) and scribble on
	// its length field to claim more than the block holds.
	hdrLen := headerFixedLen + len(tr.Profile)
	bad[hdrLen] = 77 // unknown block type
	rd, err := NewReader(bytes.NewReader(bad))
	if err == nil {
		_, err = rd.Next()
	}
	if err == nil {
		t.Fatal("unknown block type accepted")
	}
}

func TestWriterEnforcesTimeOrder(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewWriter(&buf, "p", 1)
	if err != nil {
		t.Fatal(err)
	}
	p := &packet.Packet{}
	if err := sw.Append(time.Second, p); err != nil {
		t.Fatal(err)
	}
	if err := sw.Append(500*time.Millisecond, p); err == nil {
		t.Fatal("out-of-order append accepted")
	}
}

func TestEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewWriter(&buf, "empty", 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if st := rd.Stats(); st.Packets != 0 || st.Chunks != 0 {
		t.Fatalf("empty stream stats: %+v", st)
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("empty stream Next: %v, want EOF", err)
	}
	// Streaming replay of an empty source is a no-op.
	sim := simtime.New(1)
	rd2, _ := NewReader(bytes.NewReader(buf.Bytes()))
	rs, err := ReplayReader(sim, rd2, 0, func(p *packet.Packet) { t.Fatal("emit from empty trace") })
	if err != nil || rs.Err() != nil {
		t.Fatalf("empty replay: %v / %v", err, rs.Err())
	}
}

func TestReplayReaderRefusesTimesBeforeTheClock(t *testing.T) {
	// A start before the clock fails as it does for Replay, and so does
	// a record whose offset from start overflows the clock: the lane
	// could take neither.
	tr := &Trace{}
	for i, at := range []time.Duration{0, math.MaxInt64} {
		if err := tr.Append(at, &packet.Packet{Seq: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	data := encodeStream(t, tr, DefaultChunkRecords)
	for _, c := range []struct {
		name       string
		now, start time.Duration
	}{
		{"start before now", 2 * time.Second, time.Second},
		{"record past the clock", 0, time.Second},
	} {
		emit := func(*packet.Packet) {}
		sim := simtime.New(1)
		sim.RunUntil(c.now)
		if err := Replay(sim, tr, c.start, emit); !errors.Is(err, simtime.ErrPastTime) {
			t.Fatalf("%s: Replay = %v, want ErrPastTime", c.name, err)
		}
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		sim = simtime.New(1)
		sim.RunUntil(c.now)
		if _, err := ReplayReader(sim, rd, c.start, emit); !errors.Is(err, simtime.ErrPastTime) {
			t.Fatalf("%s: ReplayReader = %v, want ErrPastTime", c.name, err)
		}
	}
}

// footerStats locates the statistics of an IDT2 stream's footer so a
// test can make the footer lie about its body: packets at byte 0, bytes
// at 8, malicious packets at 16, payload packets at 24, first and last
// record at 32 and 40 (u64 each), then cluster and external hosts at 48
// and 52 and the chunk count at 56 (u32 each).
func footerStats(data []byte) []byte {
	off := binary.BigEndian.Uint64(data[len(data)-trailerLen:])
	return data[off+5+8:]
}

// dropIndexEntry returns data with its footer's last chunk index entry
// cut and the chunk count lowered to match: a well-formed footer that
// claims one chunk fewer than the body holds.
func dropIndexEntry(data []byte) []byte {
	tr := data[len(data)-trailerLen:]
	off := binary.BigEndian.Uint64(tr)
	out := append([]byte(nil), data[:len(data)-trailerLen-indexEntryLen]...)
	blen := out[off+1 : off+5]
	binary.BigEndian.PutUint32(blen, binary.BigEndian.Uint32(blen)-indexEntryLen)
	n := out[off+5+8+56 : off+5+8+60]
	binary.BigEndian.PutUint32(n, binary.BigEndian.Uint32(n)-1)
	return append(out, tr...)
}

// regressingStream is two 2-record chunks, at 10 and 20 ms and then at
// 5 and 6 ms, behind a footer that agrees with its records, so it
// reports LastAt 6 ms before FirstAt 10 ms. The Writer never writes it:
// the test lifts Append's time-order check by resetting lastAt.
func regressingStream(t testing.TB) []byte {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, "regress", 1)
	if err != nil {
		t.Fatal(err)
	}
	w.chunkRecords = 2
	for i, at := range []time.Duration{10, 20, 5, 6} {
		w.lastAt = 0
		p := &packet.Packet{Seq: uint64(i + 1), Src: packet.IPv4(10, 1, 1, 1), Dst: packet.IPv4(203, 0, 1, 1)}
		if err := w.Append(at*time.Millisecond, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReaderRejectsTimeRegressionAcrossChunks(t *testing.T) {
	data := regressingStream(t)
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if st := rd.Stats(); st.Duration() != -4*time.Millisecond {
		t.Fatalf("footer span %v, want the crafted -4ms", st.Duration())
	}
	if _, err := rd.Next(); err != nil {
		t.Fatalf("chunk 0 is in order, Next failed: %v", err)
	}
	const want = "chunk 1 starts at 5ms, before the previous chunk's last record at 20ms"
	if _, err := rd.Next(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Next = %v, want %q", err, want)
	}

	// A streaming replay plays chunk 0, then reports the regression from
	// its advance event instead of pushing a record behind the lane's tail.
	rd, err = NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	sim := simtime.New(1)
	emitted := 0
	rs, err := ReplayReader(sim, rd, time.Second, func(*packet.Packet) { emitted++ })
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if err := rs.Err(); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("replay Err = %v, want %q", err, want)
	}
	if emitted != 2 {
		t.Fatalf("emitted %d records, want chunk 0's 2", emitted)
	}
}

// lyingFooterStream is the 8-record fuzz seed trace behind a footer that
// claims 999 packets and 4,294,967,295 cluster hosts.
func lyingFooterStream(t testing.TB) []byte {
	var buf bytes.Buffer
	if err := fuzzSeedTrace().WriteStream(&buf); err != nil {
		t.Fatal(err)
	}
	st := footerStats(buf.Bytes())
	binary.BigEndian.PutUint64(st[0:8], 999)
	binary.BigEndian.PutUint32(st[48:52], math.MaxUint32)
	return buf.Bytes()
}

func TestLyingFooterRejected(t *testing.T) {
	// Host counts the address plan cannot hold fail at open, before a
	// consumer sizes a testbed from them.
	lying := lyingFooterStream(t)
	if _, err := NewReader(bytes.NewReader(lying)); err == nil || !strings.Contains(err.Error(), "4294967295 cluster hosts") {
		t.Fatalf("open: got %v, want the cluster host claim rejected", err)
	}

	// Plausible lies pass the open check and fail the scan at its end,
	// naming the field: every statistic is recomputed from the records.
	data := encodeStream(t, fuzzSeedTrace(), 3)
	add64 := func(off int, d int64) func([]byte) []byte {
		return func(data []byte) []byte {
			st := footerStats(data)[off:]
			binary.BigEndian.PutUint64(st, uint64(int64(binary.BigEndian.Uint64(st))+d))
			return data
		}
	}
	add32 := func(off int, d int32) func([]byte) []byte {
		return func(data []byte) []byte {
			st := footerStats(data)[off:]
			binary.BigEndian.PutUint32(st, uint32(int32(binary.BigEndian.Uint32(st))+d))
			return data
		}
	}
	for _, c := range []struct {
		field string
		lie   func(data []byte) []byte
	}{
		{"packets", add64(0, -1)},
		{"bytes", add64(8, 1)},
		{"malicious packets", add64(16, 1)},
		{"payload packets", add64(24, -1)},
		{"first record", add64(32, int64(time.Hour))},
		{"last record", add64(40, 1)},
		{"cluster hosts", add32(48, 247)},
		{"external hosts", add32(52, -1)},
		{"chunks", dropIndexEntry},
	} {
		bad := c.lie(append([]byte(nil), data...))
		if _, err := readTrace(bytes.NewReader(bad)); err == nil || !strings.Contains(err.Error(), "footer claims") ||
			!strings.Contains(err.Error(), c.field) {
			t.Fatalf("%s lie: got %v, want a footer error naming the field", c.field, err)
		}
	}
	// The honest stream still decodes cleanly.
	if _, err := readTrace(bytes.NewReader(data)); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeAllocsPerChunk(t *testing.T) {
	tr := sampleTraceForBench(t)
	const chunkRecords = 64
	data := encodeStream(t, tr, chunkRecords)
	chunks := (len(tr.Records) + chunkRecords - 1) / chunkRecords
	if chunks < 10 {
		t.Fatalf("trace too small for a meaningful per-chunk measurement (%d chunks)", chunks)
	}
	br := bytes.NewReader(data)
	allocs := testing.AllocsPerRun(20, func() {
		br.Reset(data)
		rd, err := NewReader(br)
		if err != nil {
			t.Fatal(err)
		}
		for {
			c, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			c.Release()
		}
	})
	perChunk := allocs / float64(chunks)
	t.Logf("decode: %.1f allocs/op over %d chunks = %.2f allocs/chunk", allocs, chunks, perChunk)
	if perChunk > 2 {
		t.Fatalf("%.2f allocs per chunk, want <= 2 (total %.0f over %d chunks)", perChunk, allocs, chunks)
	}
}

// ---- benchmarks ----

// longTraceForBench generates dur of background traffic — enough
// records that a small-chunk encoding spans dozens of chunks.
func longTraceForBench(b *testing.B, dur time.Duration) *Trace {
	b.Helper()
	sim := simtime.New(21)
	rec := NewRecorder(sim, "bench-long")
	eps := traffic.Endpoints{
		External: []packet.Addr{packet.IPv4(203, 0, 1, 1)},
		Cluster:  []packet.Addr{packet.IPv4(10, 1, 1, 1), packet.IPv4(10, 1, 1, 2)},
	}
	gen, err := traffic.NewGenerator(sim, traffic.EcommerceEdge(), eps, nil, rec.Emit)
	if err != nil {
		b.Fatal(err)
	}
	gen.Start(40)
	sim.RunUntil(dur)
	gen.Stop()
	sim.Run()
	return rec.Trace()
}

func BenchmarkStreamEncode(b *testing.B) {
	tr := sampleTraceForBench(b)
	var buf bytes.Buffer
	if err := tr.WriteStream(&buf); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tr.WriteStream(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamDecode(b *testing.B) {
	tr := sampleTraceForBench(b)
	var buf bytes.Buffer
	if err := tr.WriteStream(&buf); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		for {
			c, err := rd.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			c.Release()
		}
	}
}

// BenchmarkReplayReader replays a fixed multi-chunk stream onto a fresh
// sim in each iteration: open, decode, and emit every record. `make
// benchgate` gates its allocs/op with no growth allowed, so an
// allocation per replayed record (a closure per scheduled event, say)
// shows there at once.
func BenchmarkReplayReader(b *testing.B) {
	data := encodeStream(b, sampleTraceForBench(b), 256)
	emit := func(*packet.Packet) {}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim := simtime.New(1)
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		rs, err := ReplayReader(sim, rd, 0, emit)
		if err != nil {
			b.Fatal(err)
		}
		sim.Run()
		if err := rs.Err(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayLiveHeap contrasts the live-heap high-water mark (a
// peak-RSS proxy) of in-memory versus streaming replay. The custom
// live-MB metric is sampled at the replay midpoint after a forced GC,
// when the in-memory path necessarily holds every record and the
// streaming path only the chunks that a scheduled record or a packet
// still in flight points into.
func BenchmarkReplayLiveHeap(b *testing.B) {
	// A long trace over small chunks, so it spans far more chunks than
	// the streaming path keeps live: its live set is the current chunk
	// and what is in flight, not the whole record array.
	tr := longTraceForBench(b, 30*time.Second)
	data := encodeStream(b, tr, 256)
	total := len(tr.Records)
	tr = nil // the decoded form must not be live during measurement

	measure := func(b *testing.B, run func(emit func(p *packet.Packet))) {
		var peak uint64
		for i := 0; i < b.N; i++ {
			seen := 0
			sampled := false
			run(func(p *packet.Packet) {
				seen++
				if !sampled && seen >= total/2 {
					sampled = true
					var ms runtime.MemStats
					runtime.GC()
					runtime.ReadMemStats(&ms)
					if ms.HeapAlloc > peak {
						peak = ms.HeapAlloc
					}
				}
			})
		}
		b.ReportMetric(float64(peak)/1e6, "live-MB")
	}

	b.Run("inmemory", func(b *testing.B) {
		measure(b, func(emit func(p *packet.Packet)) {
			sim := simtime.New(1)
			loaded, err := readTrace(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			if err := Replay(sim, loaded, 0, emit); err != nil {
				b.Fatal(err)
			}
			sim.Run()
		})
	})
	b.Run("stream", func(b *testing.B) {
		measure(b, func(emit func(p *packet.Packet)) {
			sim := simtime.New(1)
			rd, err := NewReader(bytes.NewReader(data))
			if err != nil {
				b.Fatal(err)
			}
			rs, err := ReplayReader(sim, rd, 0, emit)
			if err != nil {
				b.Fatal(err)
			}
			sim.Run()
			if err := rs.Err(); err != nil {
				b.Fatal(err)
			}
		})
	})
}
