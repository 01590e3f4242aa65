package detect

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/packet"
)

// benignPacket is a realistic clean packet: mid-session TCP data whose
// payload matches no content rule and whose flags match no threshold
// rule. This is the overwhelmingly common case on the evaluation
// testbed, so it is the path the zero-allocation work targets.
func benignPacket() *packet.Packet {
	return &packet.Packet{
		Seq: 7, Src: 0x0A010105, Dst: 0x0A010106,
		SrcPort: 34012, DstPort: 80,
		Proto: packet.ProtoTCP, Flags: packet.ACK | packet.PSH, TTL: 64,
		Payload: []byte("GET /catalog/items HTTP/1.0\r\nHost: shop.example.com\r\n" +
			"User-Agent: Lynx/2.8.4rel.1 libwww-FM/2.14\r\nAccept: */*\r\n\r\n" +
			"status report nominal track update bearing range doppler contact"),
	}
}

// TestSignatureInspectBenignZeroAllocs pins the acceptance criterion:
// inspecting a clean packet allocates nothing — no suppress-key
// formatting, no Reason formatting, no per-scan hit slices.
func TestSignatureInspectBenignZeroAllocs(t *testing.T) {
	e := NewStandardSignatureEngine()
	p := benignPacket()
	now := 5 * time.Millisecond
	e.Inspect(p, now) // warm scan buffers
	allocs := testing.AllocsPerRun(200, func() {
		now += 40 * time.Microsecond
		if got := e.Inspect(p, now); got != nil {
			t.Fatalf("benign packet raised alerts: %v", got)
		}
	})
	if allocs != 0 {
		t.Fatalf("Inspect benign path allocates %.1f allocs/op, want 0", allocs)
	}
}

func BenchmarkSignatureInspect(b *testing.B) {
	e := NewStandardSignatureEngine()
	p := benignPacket()
	now := time.Duration(0)
	e.Inspect(p, now)
	b.ReportAllocs()
	b.SetBytes(int64(len(p.Payload)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 40 * time.Microsecond
		e.Inspect(p, now)
	}
}

func BenchmarkSignatureInspectMalicious(b *testing.B) {
	e := NewStandardSignatureEngine()
	p := benignPacket()
	p.Payload = []byte("GET /cgi-bin/phf?Qalias=x%0a/bin/cat%20/etc/passwd HTTP/1.0\r\n\r\n")
	now := time.Duration(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += 40 * time.Microsecond
		e.Inspect(p, now)
	}
}

// TestCachedMatcherBuildsOnce verifies the compiled-artifact cache:
// one automaton build per distinct corpus, every later request a hit
// returning the same immutable Matcher.
func TestCachedMatcherBuildsOnce(t *testing.T) {
	corpus := [][]byte{
		[]byte("cache-probe-alpha"), []byte("cache-probe-beta"),
		[]byte("cache-probe-gamma"),
	}
	builds0, hits0 := MatcherCacheStats()
	first := CachedMatcher(corpus)
	for i := 0; i < 4; i++ {
		if m := CachedMatcher(corpus); m != first {
			t.Fatalf("request %d returned a different Matcher instance", i)
		}
	}
	builds, hits := MatcherCacheStats()
	if got := builds - builds0; got != 1 {
		t.Fatalf("corpus compiled %d times, want exactly 1", got)
	}
	if got := hits - hits0; got != 4 {
		t.Fatalf("cache hits = %d, want 4", got)
	}
}

// TestSignatureEnginesShareCachedMatcher verifies that engines built
// from the same rule corpus — the multi-product evaluation pattern —
// share one compiled automaton instead of recompiling per product.
func TestSignatureEnginesShareCachedMatcher(t *testing.T) {
	a := NewStandardSignatureEngine()
	b := NewStandardSignatureEngine()
	if a.matcher != b.matcher {
		t.Fatal("two engines over the standard corpus hold different compiled matchers")
	}
}

// TestCachedMatcherConcurrentScans exercises the sharing contract under
// the race detector: many goroutines scan through one cached Matcher
// concurrently, each with its own ScanBuf, and all see the same hits.
func TestCachedMatcherConcurrentScans(t *testing.T) {
	corpus := [][]byte{[]byte("needle-one"), []byte("needle-two"), []byte("absent")}
	data := bytes.Repeat([]byte("padding needle-one more padding needle-two tail "), 8)
	m := CachedMatcher(corpus)
	want := scanSetRef(m, data)

	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf ScanBuf
			for i := 0; i < 200; i++ {
				got := CachedMatcher(corpus).ScanSetInto(data, &buf)
				if len(got) != len(want) {
					errs <- bytes.ErrTooLarge // placeholder; reported below
					return
				}
				for j := range got {
					if int(got[j]) != want[j] {
						errs <- bytes.ErrTooLarge
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if len(errs) > 0 {
		t.Fatal("concurrent ScanSetInto results diverged from the serial reference")
	}
}

// standardPatterns returns the stock content-rule corpus's patterns.
func standardPatterns() [][]byte {
	rules := StandardContentRules()
	pats := make([][]byte, len(rules))
	for i, r := range rules {
		pats[i] = r.Pattern
	}
	return pats
}

// batchPayloads synthesizes n realistic benign payloads of ~sz bytes for
// batched-scan benchmarks.
func batchPayloads(n, sz int) [][]byte {
	words := []byte("GET /index.html HTTP/1.0 Host: shop.example.com status nominal track update bearing range ")
	out := make([][]byte, n)
	seed := uint64(12345)
	for i := range out {
		b := make([]byte, sz)
		for j := range b {
			seed = seed*6364136223846793005 + 1442695040888963407
			b[j] = words[seed>>33%uint64(len(words))]
		}
		out[i] = b
	}
	return out
}

// TestScanBatchZeroAllocs pins the steady-state batched path at zero
// allocations per op once the BatchBuf has warmed.
func TestScanBatchZeroAllocs(t *testing.T) {
	m := NewMatcher(standardPatterns())
	payloads := batchPayloads(32, 512)
	var buf BatchBuf
	m.ScanBatch(payloads, &buf)
	allocs := testing.AllocsPerRun(100, func() {
		m.ScanBatch(payloads, &buf)
	})
	if allocs != 0 {
		t.Fatalf("ScanBatch steady state allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestScanBatchMatchesScalar cross-checks the interleaved batch scanner
// against per-payload ScanSetInto over the standard corpus, including
// ragged batch shapes (empty payloads, singletons, > batchLanes).
func TestScanBatchMatchesScalar(t *testing.T) {
	m := NewMatcher(standardPatterns())
	payloads := [][]byte{
		nil,
		[]byte("nothing of note"),
		[]byte("GET /cgi-bin/phf HTTP/1.0"),
		[]byte("login as admin, cat /etc/passwd, su root"),
		bytes.Repeat([]byte{0x90}, 64),
		[]byte("Login incorrectLogin incorrect"),
		[]byte(""),
		[]byte("x"),
		[]byte("default.ida?NNNN ..%c0%af site exec %p pidof auditd"),
		bytes.Repeat([]byte("rootrooty"), 40),
		[]byte("> /.rhosts chmod 4755 /tmp/sh"),
	}
	for n := 0; n <= len(payloads); n++ {
		batch := payloads[:n]
		var bbuf BatchBuf
		m.ScanBatch(batch, &bbuf)
		if bbuf.Len() != n {
			t.Fatalf("ScanBatch len = %d, want %d", bbuf.Len(), n)
		}
		var sbuf ScanBuf
		for i, pl := range batch {
			want := append([]int32(nil), m.ScanSetInto(pl, &sbuf)...)
			got := bbuf.Hits(i)
			if len(got) != len(want) {
				t.Fatalf("n=%d payload %d: batch %v, scalar %v", n, i, got, want)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("n=%d payload %d: batch %v, scalar %v", n, i, got, want)
				}
			}
		}
	}
}

// BenchmarkMatcherConstructStandard measures compiling the stock corpus
// into the flattened hybrid layout — the cost the process-wide cache
// amortizes to one per corpus.
func BenchmarkMatcherConstructStandard(b *testing.B) {
	pats := standardPatterns()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		NewMatcher(pats)
	}
}

// BenchmarkScanBatch32x512 is the headline batched-throughput number: 32
// payloads of 512 B scanned per op through the interleaved lanes.
func BenchmarkScanBatch32x512(b *testing.B) {
	m := NewMatcher(standardPatterns())
	payloads := batchPayloads(32, 512)
	var buf BatchBuf
	m.ScanBatch(payloads, &buf)
	b.SetBytes(32 * 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ScanBatch(payloads, &buf)
	}
}

// BenchmarkScanBatch8x4K matches the scalar 4K benchmark's payload size
// at full lane width.
func BenchmarkScanBatch8x4K(b *testing.B) {
	m := NewMatcher(standardPatterns())
	payloads := batchPayloads(8, 4096)
	var buf BatchBuf
	m.ScanBatch(payloads, &buf)
	b.SetBytes(8 * 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ScanBatch(payloads, &buf)
	}
}

// BenchmarkScanBatch1x4K pins the degenerate single-lane batch: the
// batched path must not regress the unbatched scan it replaces.
func BenchmarkScanBatch1x4K(b *testing.B) {
	m := NewMatcher(standardPatterns())
	payloads := batchPayloads(1, 4096)
	var buf BatchBuf
	m.ScanBatch(payloads, &buf)
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ScanBatch(payloads, &buf)
	}
}

// BenchmarkScanSetInto4K is the scalar reference the batch numbers are
// judged against (same corpus, same data shape as ScanBatch8x4K).
func BenchmarkScanSetInto4K(b *testing.B) {
	m := NewMatcher(standardPatterns())
	data := batchPayloads(1, 4096)[0]
	var buf ScanBuf
	m.ScanSetInto(data, &buf)
	b.SetBytes(4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ScanSetInto(data, &buf)
	}
}

// TestScanSetIntoMatchesScanSet cross-checks the zero-allocation set
// scan against Scan, reduced to sorted distinct pattern indices, across
// the standard corpus.
func TestScanSetIntoMatchesScanSet(t *testing.T) {
	rules := StandardContentRules()
	pats := make([][]byte, len(rules))
	for i, r := range rules {
		pats[i] = r.Pattern
	}
	m := NewMatcher(pats)
	inputs := [][]byte{
		nil,
		[]byte("nothing of note"),
		[]byte("GET /cgi-bin/phf HTTP/1.0"),
		[]byte("login as admin, cat /etc/passwd, su root"),
		bytes.Repeat([]byte{0x90}, 64),
		[]byte("Login incorrectLogin incorrect"),
	}
	var buf ScanBuf
	for _, in := range inputs {
		want := scanSetRef(m, in)
		got := m.ScanSetInto(in, &buf)
		if len(got) != len(want) {
			t.Fatalf("ScanSetInto(%q) = %v, want %v", in, got, want)
		}
		for i := range got {
			if int(got[i]) != want[i] {
				t.Fatalf("ScanSetInto(%q) = %v, want %v", in, got, want)
			}
		}
	}
}

// sharedHitBatch is a twin sensor's warm prescan: 32 payloads of 512 B,
// every fourth carrying a high-fidelity signature, all already stored
// in a shared memo by the first engine's scan.
func sharedHitBatch() (twin *SignatureEngine, payloads [][]byte) {
	payloads = batchPayloads(32, 512)
	for i := 0; i < len(payloads); i += 4 {
		copy(payloads[i], "GET /cgi-bin/phf?Qalias=x%0a/bin/cat%20/etc/passwd")
	}
	memo := NewScanMemo(len(payloads))
	first := NewStandardSignatureEngine()
	twin = NewStandardSignatureEngine()
	first.ShareScans(memo)
	twin.ShareScans(memo)
	first.PrescanBatch(payloads)
	twin.PrescanBatch(payloads)
	return twin, payloads
}

// TestPrescanSharedHitZeroAllocs pins a warm memo's prescan at zero
// allocations per op: hits are copied, never scanned or stored.
func TestPrescanSharedHitZeroAllocs(t *testing.T) {
	twin, payloads := sharedHitBatch()
	allocs := testing.AllocsPerRun(100, func() {
		twin.PrescanBatch(payloads)
	})
	if allocs != 0 {
		t.Fatalf("warm-memo PrescanBatch allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkPrescanSharedHit times a twin sensor's prescan on a warm
// memo. benchgate requires 0 allocs/op.
func BenchmarkPrescanSharedHit(b *testing.B) {
	twin, payloads := sharedHitBatch()
	b.SetBytes(32 * 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		twin.PrescanBatch(payloads)
	}
}

// sharedPayloadTwins is a warm shared testbed's inspection: 32 packets
// of 512 B on one flow, every fourth carrying a high-fidelity
// signature, whose match sets and entropies a first reassembling engine
// and a first anomaly engine, which trained the profile, have already
// stored in a shared memo. The twins returned read that memo, and have
// inspected the packets twice, so flow tails, suppression holdoffs and
// rate trackers are warm.
func sharedPayloadTwins() (sig *SignatureEngine, anom *AnomalyEngine, pkts []*packet.Packet, payloads [][]byte) {
	payloads = batchPayloads(32, 512)
	for i := 0; i < len(payloads); i += 4 {
		copy(payloads[i], "GET /cgi-bin/phf?Qalias=x%0a/bin/cat%20/etc/passwd")
	}
	for _, p := range payloads {
		pkt := benignPacket()
		pkt.Payload = p
		pkts = append(pkts, pkt)
	}
	memo := NewScanMemo(len(payloads))
	first, firstAnom := NewReassemblingSignatureEngine(), NewAnomalyEngine()
	sig, anom = NewReassemblingSignatureEngine(), NewAnomalyEngine()
	anom.ReadProfile(firstAnom.Profile())
	for _, e := range []ScanSharer{first, firstAnom, sig, anom} {
		e.ShareScans(memo)
	}
	for _, p := range pkts {
		firstAnom.Train(p, 0)
	}
	first.PrescanBatch(payloads)
	inspectShared(sig, anom, pkts, payloads)
	inspectShared(sig, anom, pkts, payloads)
	return sig, anom, pkts, payloads
}

// inspectShared is one op: the reassembling twin prescans the batch and
// inspects each packet, scanning only its seam, and the anomaly twin
// inspects each packet.
func inspectShared(sig *SignatureEngine, anom *AnomalyEngine, pkts []*packet.Packet, payloads [][]byte) {
	const now = time.Second
	sig.PrescanBatch(payloads)
	for i, p := range pkts {
		sig.InspectPrescanned(p, now, i)
		anom.Inspect(p, now)
	}
}

// TestInspectSharedPayloadZeroAllocs pins a warm memo's inspection at
// zero allocations per op: match sets and entropies are read from the
// memo, and the seam scan and its union reuse the engine's buffers.
func TestInspectSharedPayloadZeroAllocs(t *testing.T) {
	sig, anom, pkts, payloads := sharedPayloadTwins()
	allocs := testing.AllocsPerRun(100, func() {
		inspectShared(sig, anom, pkts, payloads)
	})
	if allocs != 0 {
		t.Fatalf("warm-memo inspection allocates %.1f allocs/op, want 0", allocs)
	}
}

// BenchmarkInspectSharedPayload times twin engines' inspection of a
// batch on a warm memo. benchgate requires 0 allocs/op.
func BenchmarkInspectSharedPayload(b *testing.B) {
	sig, anom, pkts, payloads := sharedPayloadTwins()
	b.SetBytes(32 * 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inspectShared(sig, anom, pkts, payloads)
	}
}
