package trace

import (
	"bytes"
	"encoding/binary"
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
// with the IDT2 magic and reads back whole, through readTrace, from a
// seekable and from a sequential source.
func TestStreamRoundTripViaReadBinary(t *testing.T) {
	tr := sampleTrace(t)
	var buf bytes.Buffer
	if err := tr.WriteStream(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 4 || binary.BigEndian.Uint32(buf.Bytes()) != magic2 {
		t.Fatal("stream does not start with IDT2 magic")
	}
	for _, src := range []io.Reader{bytes.NewReader(buf.Bytes()), nonSeeker{bytes.NewReader(buf.Bytes())}} {
		got, err := readTrace(src)
		if err != nil {
			t.Fatal(err)
		}
		traceEqual(t, tr, got)
	}
}

func TestStreamReaderChunksAndStats(t *testing.T) {
	tr := sampleTrace(t)
	data := encodeStream(t, tr, 64)
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	st, ok := rd.Stats()
	if !ok {
		t.Fatal("seekable stream: stats not available up front")
	}
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
	if st.Chunks != wantChunks || len(rd.Index()) != wantChunks {
		t.Fatalf("chunks %d / index %d, want %d", st.Chunks, len(rd.Index()), wantChunks)
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

// nonSeeker hides the ReadSeeker of a bytes.Reader.
type nonSeeker struct{ r io.Reader }

func (n nonSeeker) Read(p []byte) (int, error) { return n.r.Read(p) }

func TestStreamSequentialScan(t *testing.T) {
	tr := sampleTrace(t)
	data := encodeStream(t, tr, 128)
	rd, err := NewReader(nonSeeker{bytes.NewReader(data)})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := rd.Stats(); ok {
		t.Fatal("sequential scan: stats claimed before EOF")
	}
	n := 0
	for {
		c, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n += len(c.Records)
	}
	if n != len(tr.Records) {
		t.Fatalf("scanned %d records, want %d", n, len(tr.Records))
	}
	st, ok := rd.Stats()
	if !ok || st.Packets != uint64(len(tr.Records)) {
		t.Fatalf("stats after EOF: ok=%v %+v", ok, st)
	}
	if len(rd.Incidents()) != len(tr.Incidents) {
		t.Fatal("incidents missing after sequential scan")
	}
	if err := rd.SeekTo(0); err == nil {
		t.Fatal("SeekTo on sequential stream accepted")
	}
}

func TestStreamSeekTo(t *testing.T) {
	tr := sampleTrace(t)
	data := encodeStream(t, tr, 32)
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	mid := tr.Records[len(tr.Records)/2].At
	if err := rd.SeekTo(mid); err != nil {
		t.Fatal(err)
	}
	c, err := rd.Next()
	if err != nil {
		t.Fatal(err)
	}
	if c.LastAt() < mid {
		t.Fatalf("chunk ends %v, before seek target %v", c.LastAt(), mid)
	}
	// The previous chunk (if any) must end before mid: we landed on the
	// first chunk whose range can contain mid.
	idx := rd.Index()
	for i, ci := range idx {
		if ci.FirstAt == c.FirstAt() && i > 0 && idx[i-1].LastAt >= mid {
			t.Fatal("seek overshot: an earlier chunk also covers the target")
		}
	}
	c.Release()

	// Seeking past the end drains to EOF.
	if err := rd.SeekTo(tr.Records[len(tr.Records)-1].At + time.Hour); err != nil {
		t.Fatal(err)
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("seek past end: got %v, want EOF", err)
	}
	// Rewind to the start replays everything.
	if err := rd.SeekTo(0); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		c, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		n += len(c.Records)
		c.Release()
	}
	if n != len(tr.Records) {
		t.Fatalf("after rewind scanned %d records, want %d", n, len(tr.Records))
	}
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
	for _, speedup := range []float64{1, 3} {
		speedup := speedup
		want := observeReplay(t, func(sim *simtime.Sim, emit func(p *packet.Packet)) {
			if err := Replay(sim, tr, time.Second, speedup, emit); err != nil {
				t.Fatal(err)
			}
		})
		var rs *ReplayStream
		got := observeReplay(t, func(sim *simtime.Sim, emit func(p *packet.Packet)) {
			rd, err := NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			rs, err = ReplayReader(sim, rd, time.Second, speedup, emit)
			if err != nil {
				t.Fatal(err)
			}
		})
		if err := rs.Err(); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("speedup %v: replayed %d packets, want %d", speedup, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("speedup %v: emit %d differs: %+v vs %+v", speedup, i, got[i], want[i])
			}
		}
	}
}

func TestPipelinedReaderMatchesDirect(t *testing.T) {
	tr := sampleTrace(t)
	data := encodeStream(t, tr, 40)
	want := observeReplay(t, func(sim *simtime.Sim, emit func(p *packet.Packet)) {
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ReplayReader(sim, rd, 0, 1, emit); err != nil {
			t.Fatal(err)
		}
	})
	var pr *PipelinedReader
	got := observeReplay(t, func(sim *simtime.Sim, emit func(p *packet.Packet)) {
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		pr = NewPipelinedReader(rd, 2)
		if _, err := ReplayReader(sim, pr, 0, 1, emit); err != nil {
			t.Fatal(err)
		}
	})
	pr.Close()
	if len(got) != len(want) {
		t.Fatalf("pipelined replayed %d packets, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("emit %d differs: %+v vs %+v", i, got[i], want[i])
		}
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
	got, err := readTrace(&buf)
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
	st, ok := rd.Stats()
	if !ok || st.Packets != 0 || st.Chunks != 0 {
		t.Fatalf("empty stream stats: ok=%v %+v", ok, st)
	}
	if _, err := rd.Next(); err != io.EOF {
		t.Fatalf("empty stream Next: %v, want EOF", err)
	}
	// Streaming replay of an empty source is a no-op.
	sim := simtime.New(1)
	rd2, _ := NewReader(bytes.NewReader(buf.Bytes()))
	rs, err := ReplayReader(sim, rd2, 0, 1, func(p *packet.Packet) { t.Fatal("emit from empty trace") })
	if err != nil || rs.Err() != nil {
		t.Fatalf("empty replay: %v / %v", err, rs.Err())
	}
}

// footerStats locates the statistics of an indexed IDT2 stream's
// footer — packets at byte 0, first record at 32, cluster and external
// hosts at 48 and 52 — so a test can make the footer lie about its body.
func footerStats(data []byte) []byte {
	off := binary.BigEndian.Uint64(data[len(data)-trailerLen:])
	return data[off+5+8:]
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
	// consumer sizes a testbed from them; a sequential scan, which only
	// meets the footer at the end, fails there on the first lie.
	lying := lyingFooterStream(t)
	if _, err := NewReader(bytes.NewReader(lying)); err == nil || !strings.Contains(err.Error(), "4294967295 cluster hosts") {
		t.Fatalf("open: got %v, want the cluster host claim rejected", err)
	}
	if _, err := readTrace(nonSeeker{bytes.NewReader(lying)}); err == nil || !strings.Contains(err.Error(), "999 packets") {
		t.Fatalf("sequential scan: got %v, want the packet claim rejected", err)
	}

	// Plausible lies pass the open check and fail a full scan, seekable
	// or sequential, naming the field.
	data := encodeStream(t, fuzzSeedTrace(), 3)
	for _, c := range []struct {
		field string
		patch func(st []byte)
	}{
		{"packets", func(st []byte) { binary.BigEndian.PutUint64(st[0:8], 7) }},
		{"first record", func(st []byte) { binary.BigEndian.PutUint64(st[32:40], uint64(time.Hour)) }},
		{"cluster hosts", func(st []byte) { binary.BigEndian.PutUint32(st[48:52], 250) }},
		{"external hosts", func(st []byte) { binary.BigEndian.PutUint32(st[52:56], 0) }},
	} {
		bad := append([]byte(nil), data...)
		c.patch(footerStats(bad))
		for _, src := range []io.Reader{bytes.NewReader(bad), nonSeeker{bytes.NewReader(bad)}} {
			if _, err := readTrace(src); err == nil || !strings.Contains(err.Error(), "footer claims") ||
				!strings.Contains(err.Error(), c.field) {
				t.Fatalf("%s lie: got %v, want a footer error naming the field", c.field, err)
			}
		}
		// A scan that seeked saw only part of the body, so it cannot
		// judge the footer and must not fail on it.
		rd, err := NewReader(bytes.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		if err := rd.SeekTo(0); err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := rd.Next(); err == io.EOF {
				break
			} else if err != nil {
				t.Fatalf("%s lie after SeekTo: %v", c.field, err)
			}
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

func BenchmarkStreamDecodePipelined(b *testing.B) {
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
		pr := NewPipelinedReader(rd, 2)
		for {
			c, err := pr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			c.Release()
		}
		pr.Close()
	}
}

// BenchmarkReplayLiveHeap contrasts the live-heap high-water mark (a
// peak-RSS proxy) of in-memory versus streaming replay. The custom
// live-MB metric is sampled at the replay midpoint after a forced GC,
// when the in-memory path necessarily holds every record and the
// streaming path only its release-lag window.
func BenchmarkReplayLiveHeap(b *testing.B) {
	// A long trace over small chunks, so it spans far more chunks than
	// the streaming window (pipeline depth + release lag + freelist):
	// the streaming path's live set is that window, not the whole
	// record array.
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
			if err := Replay(sim, loaded, 0, 1, emit); err != nil {
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
			pr := NewPipelinedReader(rd, 2)
			rs, err := ReplayReader(sim, pr, 0, 1, emit)
			if err != nil {
				b.Fatal(err)
			}
			sim.Run()
			pr.Close()
			if err := rs.Err(); err != nil {
				b.Fatal(err)
			}
		})
	})
}
