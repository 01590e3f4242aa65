package traffic

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// The reference builders below are the payload builders as they were
// before the word kernel drew its index with a constant modulus and
// wrote each word as a 16-byte block: fmt-free appends, one
// rng.Intn(len(loremWords)) per word through pick. The shipped builders
// must return the same bytes from the same draws, so each test holds
// them to these on identical random streams.

func refAppendWords(b []byte, rng *rand.Rand, n int) []byte {
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, pick(rng, loremWords)...)
	}
	return b
}

func refAppendPadLeft(b []byte, v uint64, base, w int, pad byte) []byte {
	var tmp [20]byte
	s := strconv.AppendUint(tmp[:0], v, base)
	for i := len(s); i < w; i++ {
		b = append(b, pad)
	}
	return append(b, s...)
}

func refWords(rng *rand.Rand, n int) string {
	sp := getScratch()
	b := refAppendWords((*sp)[:0], rng, n)
	s := string(b)
	*sp = b[:0]
	payloadScratch.Put(sp)
	return s
}

func refHTTPRequest(rng *rand.Rand) []byte {
	path := pick(rng, httpPaths)
	host := pick(rng, httpHosts)
	agent := pick(rng, httpAgents)
	sp := getScratch()
	b := (*sp)[:0]
	if rng.Intn(5) == 0 { // occasional POST
		bsp := getScratch()
		body := append((*bsp)[:0], "item="...)
		body = strconv.AppendInt(body, int64(rng.Intn(10000)), 10)
		body = append(body, "&qty="...)
		body = strconv.AppendInt(body, int64(1+rng.Intn(9)), 10)
		body = append(body, "&note="...)
		body = refAppendWords(body, rng, 3)
		b = append(b, "POST "...)
		b = append(b, path...)
		b = append(b, " HTTP/1.0\r\nHost: "...)
		b = append(b, host...)
		b = append(b, "\r\nUser-Agent: "...)
		b = append(b, agent...)
		b = append(b, "\r\nContent-Type: application/x-www-form-urlencoded\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
		b = append(b, "\r\n\r\n"...)
		b = append(b, body...)
		*bsp = body[:0]
		payloadScratch.Put(bsp)
		return finishPayload(sp, b)
	}
	b = append(b, "GET "...)
	b = append(b, path...)
	b = append(b, " HTTP/1.0\r\nHost: "...)
	b = append(b, host...)
	b = append(b, "\r\nUser-Agent: "...)
	b = append(b, agent...)
	b = append(b, "\r\nAccept: */*\r\n\r\n"...)
	return finishPayload(sp, b)
}

func refHTTPResponse(rng *rand.Rand, bodyLen int) []byte {
	if bodyLen < 16 {
		bodyLen = 16
	}
	bsp := getScratch()
	body := append((*bsp)[:0], "<html><head><title>"...)
	body = refAppendWords(body, rng, 2)
	body = append(body, "</title></head><body>"...)
	for len(body) < bodyLen {
		body = append(body, "<p>"...)
		body = refAppendWords(body, rng, 8)
		body = append(body, "</p>"...)
	}
	body = append(body, "</body></html>"...)
	status := "200 OK"
	if rng.Intn(20) == 0 {
		status = "404 Not Found"
	}
	sp := getScratch()
	b := append((*sp)[:0], "HTTP/1.0 "...)
	b = append(b, status...)
	b = append(b, "\r\nServer: Apache/1.3.19 (Unix)\r\nContent-Type: text/html\r\nContent-Length: "...)
	b = strconv.AppendInt(b, int64(len(body)), 10)
	b = append(b, "\r\n\r\n"...)
	b = append(b, body...)
	*bsp = body[:0]
	payloadScratch.Put(bsp)
	return finishPayload(sp, b)
}

func refDNSQuery(rng *rand.Rand) []byte {
	name := pick(rng, dnsNames)
	buf := make([]byte, 12, 12+len(name)+6)
	binary.BigEndian.PutUint16(buf[0:2], uint16(rng.Intn(1<<16))) // ID
	binary.BigEndian.PutUint16(buf[2:4], 0x0100)                  // RD
	binary.BigEndian.PutUint16(buf[4:6], 1)                       // QDCOUNT
	for _, label := range strings.Split(name, ".") {
		buf = append(buf, byte(len(label)))
		buf = append(buf, label...)
	}
	buf = append(buf, 0)          // root
	buf = append(buf, 0, 1, 0, 1) // QTYPE=A QCLASS=IN
	return buf
}

func refDNSResponse(rng *rand.Rand) []byte {
	q := refDNSQuery(rng)
	q[2] |= 0x80 // QR
	binary.BigEndian.PutUint16(q[6:8], 1)
	// Compressed-pointer answer: name ptr, type A, class IN, TTL, rdlen, addr.
	ans := []byte{0xc0, 0x0c, 0, 1, 0, 1, 0, 0, 1, 0x2c, 0, 4,
		10, byte(rng.Intn(4) + 1), byte(rng.Intn(250)), byte(rng.Intn(250) + 1)}
	return append(q, ans...)
}

func refInteractiveKeystrokes(rng *rand.Rand, fromClient bool) []byte {
	if fromClient {
		cmd := pick(rng, shellCommands)
		out := make([]byte, 0, len(cmd)+1)
		out = append(out, cmd...)
		return append(out, '\n')
	}
	lines := 1 + rng.Intn(8)
	sp := getScratch()
	b := (*sp)[:0]
	for i := 0; i < lines; i++ {
		w := pick(rng, loremWords)
		b = append(b, w...)
		for j := len(w); j < 24; j++ { // fmt's %-24s left-justified pad
			b = append(b, ' ')
		}
		b = append(b, ' ')
		b = refAppendPadLeft(b, uint64(rng.Intn(99999)), 10, 6, ' ')
		b = append(b, ' ')
		b = refAppendWords(b, rng, 4)
		b = append(b, '\n')
	}
	return finishPayload(sp, b)
}

func refBulkChunk(rng *rand.Rand, n int) []byte {
	if n <= 0 {
		n = 1024
	}
	sp := getScratch()
	b := (*sp)[:0]
	for len(b) < n {
		b = refAppendPadLeft(b, uint64(rng.Uint32()), 16, 8, '0')
		b = append(b, ' ')
		b = refAppendWords(b, rng, 6)
		b = append(b, '\n')
	}
	return finishPayload(sp, b[:n])
}

func refSyslogMessage(rng *rand.Rand) []byte {
	sp := getScratch()
	b := append((*sp)[:0], '<')
	b = strconv.AppendInt(b, int64(rng.Intn(191)), 10)
	b = append(b, ">node"...)
	b = refAppendPadLeft(b, uint64(rng.Intn(16)), 10, 2, '0')
	b = append(b, ' ')
	b = append(b, pick(rng, syslogFacilities)...)
	b = append(b, '[')
	b = strconv.AppendInt(b, int64(100+rng.Intn(30000)), 10)
	b = append(b, "]: "...)
	b = refAppendWords(b, rng, 6+rng.Intn(8))
	return finishPayload(sp, b)
}

// builderCase is one builder call at fixed arguments, beside the same
// call to its reference.
type builderCase struct {
	name      string
	got, want func(*rand.Rand) []byte
}

func bulkCase(n int) builderCase {
	return builderCase{"BulkChunk/" + strconv.Itoa(n),
		func(r *rand.Rand) []byte { return BulkChunk(r, n) },
		func(r *rand.Rand) []byte { return refBulkChunk(r, n) }}
}

func responseCase(bodyLen int) builderCase {
	return builderCase{"HTTPResponse/" + strconv.Itoa(bodyLen),
		func(r *rand.Rand) []byte { return HTTPResponse(r, bodyLen) },
		func(r *rand.Rand) []byte { return refHTTPResponse(r, bodyLen) }}
}

func wordsCase(prefix string, n int) builderCase {
	return builderCase{"appendWords/" + strconv.Itoa(len(prefix)) + "+" + strconv.Itoa(n),
		func(r *rand.Rand) []byte { return appendWords([]byte(prefix), r, n) },
		func(r *rand.Rand) []byte { return refAppendWords([]byte(prefix), r, n) }}
}

// checkBuilder runs c's builder and its reference on equal streams from
// newSource, and requires equal bytes and equal draws: the same next
// Int63 afterwards.
func checkBuilder(t *testing.T, label string, c builderCase, newSource func() rand.Source) {
	t.Helper()
	g, w := rand.New(newSource()), rand.New(newSource())
	got, want := c.got(g), c.want(w)
	if !bytes.Equal(got, want) {
		t.Fatalf("%s %s: bytes differ from the reference\n got %q\nwant %q", label, c.name, got, want)
	}
	if a, b := g.Int63(), w.Int63(); a != b {
		t.Fatalf("%s %s: next draw %d, reference %d: the draws differ", label, c.name, a, b)
	}
}

// TestPayloadBuildersMatchReference holds every rewritten builder to
// its reference over 200 seeds and the sizes that exercise each loop's
// edges: BulkChunk's default size, a cut inside, at and just past the
// first line's end, mid-size chunks and multi-line ones, and
// HTTPResponse's minimum body and the generator's body range.
func TestPayloadBuildersMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		// The first line's length, newline included.
		line := bytes.IndexByte(refBulkChunk(rand.New(rand.NewSource(seed)), 200), '\n') + 1
		cases := []builderCase{
			bulkCase(-3), bulkCase(0), bulkCase(1),
			bulkCase(line - 1), bulkCase(line), bulkCase(line + 1),
			bulkCase(600 + int(seed*37%801)), bulkCase(4096), bulkCase(10000),
			responseCase(0), responseCase(16), responseCase(256 + int(seed*53%6145)),
			wordsCase("", 1), wordsCase("note=", 3), wordsCase("", 8), wordsCase(strings.Repeat("x", 33), 40),
			{"words", func(r *rand.Rand) []byte { return []byte(words(r, 30+r.Intn(60))) },
				func(r *rand.Rand) []byte { return []byte(refWords(r, 30+r.Intn(60))) }},
			{"HTTPRequest", HTTPRequest, refHTTPRequest},
			{"SyslogMessage", SyslogMessage, refSyslogMessage},
			{"InteractiveKeystrokes/client", func(r *rand.Rand) []byte { return InteractiveKeystrokes(r, true) },
				func(r *rand.Rand) []byte { return refInteractiveKeystrokes(r, true) }},
			{"InteractiveKeystrokes/server", func(r *rand.Rand) []byte { return InteractiveKeystrokes(r, false) },
				func(r *rand.Rand) []byte { return refInteractiveKeystrokes(r, false) }},
			{"DNSQuery", DNSQuery, refDNSQuery},
			{"DNSResponse", DNSResponse, refDNSResponse},
		}
		for _, c := range cases {
			checkBuilder(t, "seed "+strconv.FormatInt(seed, 10), c,
				func() rand.Source { return rand.NewSource(seed) })
		}
	}
}

// scriptedSource returns its script from Int63 first and then a seeded
// source's values.
type scriptedSource struct {
	script []int64
	rest   rand.Source
}

func (s *scriptedSource) Int63() int64 {
	if len(s.script) > 0 {
		v := s.script[0]
		s.script = s.script[1:]
		return v
	}
	return s.rest.Int63()
}

func (s *scriptedSource) Seed(seed int64) { s.rest.Seed(seed) }

// int31Draw is the Int63 value from which rand.Rand.Int31 returns v.
func int31Draw(v int32) int64 { return int64(v) << 32 }

// TestLoremRedrawMatchesReference drives the word kernel, BulkChunk and
// server-side InteractiveKeystrokes with a draw above math/rand's
// Int31n rejection bound for the vocabulary, followed by one at the
// bound, at each position of their first draws. Seeded streams redraw
// about once in 8·10⁷ word draws, so without this the redraw branch
// would go untested. Where the rejected draw lands on a word, the
// reference redraws and takes the next value; the kernel must too.
func TestLoremRedrawMatchesReference(t *testing.T) {
	cases := []builderCase{
		wordsCase("", 3),
		bulkCase(200),
		{"InteractiveKeystrokes/server", func(r *rand.Rand) []byte { return InteractiveKeystrokes(r, false) },
			func(r *rand.Rand) []byte { return refInteractiveKeystrokes(r, false) }},
	}
	for _, above := range []int32{loremBound + 1, math.MaxInt32} {
		for pos := 0; pos < 12; pos++ {
			script := make([]int64, pos, pos+2)
			for i := range script {
				script[i] = int31Draw(int32(12345 + 999*i))
			}
			script = append(script, int31Draw(above), int31Draw(loremBound))
			for _, c := range cases {
				label := "rejected " + strconv.Itoa(int(above)) + " at draw " + strconv.Itoa(pos)
				checkBuilder(t, label, c, func() rand.Source {
					return &scriptedSource{script: append([]int64(nil), script...), rest: rand.NewSource(7)}
				})
			}
		}
	}
}
