package traffic

import (
	"bytes"
	"math/rand"
	"testing"
)

// Payload synthesis runs once per generated data packet, so its
// allocation behaviour sets the generator's GC load. In steady state
// each builder allocates once per call: the exact-size payload it
// returns. Builders that assemble text first borrow pooled scratch;
// BulkChunk builds each line on its stack.

// TestPayloadBuildersAllocateOnce holds the builders the generator
// calls per data packet to that one allocation, whatever the host.
// Under the race detector, which drops pooled scratch at random, it
// checks only the builders that borrow none.
func TestPayloadBuildersAllocateOnce(t *testing.T) {
	// seedFor finds a seed whose first HTTPRequest starts with method.
	seedFor := func(method string) int64 {
		for seed := int64(1); ; seed++ {
			if bytes.HasPrefix(HTTPRequest(rand.New(rand.NewSource(seed))), []byte(method)) {
				return seed
			}
		}
	}
	get, post := seedFor("GET "), seedFor("POST ")
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name   string
		pooled bool
		build  func()
	}{
		{"BulkChunk", false, func() { BulkChunk(rng, 4096) }},
		{"HTTPRequest/GET", true, func() { rng.Seed(get); HTTPRequest(rng) }},
		{"HTTPRequest/POST", true, func() { rng.Seed(post); HTTPRequest(rng) }},
		{"HTTPResponse", true, func() { HTTPResponse(rng, 1200) }},
		{"SyslogMessage", true, func() { SyslogMessage(rng) }},
		{"InteractiveKeystrokes/server", true, func() { InteractiveKeystrokes(rng, false) }},
		{"DNSQuery", false, func() { DNSQuery(rng) }},
	}
	for _, c := range cases {
		if c.pooled && raceEnabled {
			continue
		}
		if got := testing.AllocsPerRun(100, c.build); got != 1 {
			t.Errorf("%s: %v allocs per call, want 1", c.name, got)
		}
	}
}

func BenchmarkHTTPRequest(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		HTTPRequest(rng)
	}
}

func BenchmarkHTTPResponse(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		HTTPResponse(rng, 1200)
	}
}

func BenchmarkSyslogMessage(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SyslogMessage(rng)
	}
}

func BenchmarkDNSQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		DNSQuery(rng)
	}
}

func BenchmarkBulkChunk(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.SetBytes(4096)
	for i := 0; i < b.N; i++ {
		BulkChunk(rng, 4096)
	}
}

func BenchmarkFrameDialogue(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := BuildDialogue(rng, AppHTTP, false)
	b.ReportAllocs()
	b.ResetTimer()
	var plan []TimedPacket
	for i := 0; i < b.N; i++ {
		plan = appendDialogue(plan[:0], rng, d, 500)
	}
	_ = plan
}
