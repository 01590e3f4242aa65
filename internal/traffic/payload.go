// Package traffic generates the background workloads the evaluation
// testbed replays against an IDS under test. The paper's first lesson
// learned (Section 4) is that "simple flooding of the network ... with
// meaningless data is not sufficient": payload-inspecting IDSs behave
// differently when the data portion of packets has realistic content.
// This package therefore synthesizes protocol-plausible application
// payloads (HTTP, SMTP, DNS, interactive shell, cluster RPC, bulk
// transfer) and composes them into site profiles — an e-commerce edge
// versus a high-trust distributed real-time cluster — with deterministic,
// seedable randomness.
package traffic

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
)

// AppKind identifies an application protocol the generators can speak.
type AppKind int

// Supported application kinds.
const (
	AppHTTP AppKind = iota
	AppSMTP
	AppDNS
	AppInteractive // telnet/ssh-style keystroke sessions
	AppClusterRPC  // binary-framed inter-node real-time messaging
	AppBulk        // file transfer / replication
	AppNTP
	AppFTP    // FTP control dialogue
	AppPOP3   // mailbox retrieval
	AppSyslog // one-way UDP event stream
	numAppKinds
)

// String names the kind.
func (k AppKind) String() string {
	switch k {
	case AppHTTP:
		return "http"
	case AppSMTP:
		return "smtp"
	case AppDNS:
		return "dns"
	case AppInteractive:
		return "interactive"
	case AppClusterRPC:
		return "cluster-rpc"
	case AppBulk:
		return "bulk"
	case AppNTP:
		return "ntp"
	case AppFTP:
		return "ftp"
	case AppPOP3:
		return "pop3"
	case AppSyslog:
		return "syslog"
	default:
		return fmt.Sprintf("app(%d)", int(k))
	}
}

// WellKnownPort returns the canonical server port for the kind.
func (k AppKind) WellKnownPort() uint16 {
	switch k {
	case AppHTTP:
		return 80
	case AppSMTP:
		return 25
	case AppDNS:
		return 53
	case AppInteractive:
		return 22
	case AppClusterRPC:
		return 7400
	case AppBulk:
		return 20
	case AppNTP:
		return 123
	case AppFTP:
		return 21
	case AppPOP3:
		return 110
	case AppSyslog:
		return 514
	default:
		return 9999
	}
}

// Vocabulary used to make payloads look like real site traffic rather
// than noise. Word choice is arbitrary; structural plausibility is what
// the detection engines respond to.
var (
	httpPaths = []string{
		"/", "/index.html", "/catalog", "/catalog/items", "/cart",
		"/checkout", "/api/v1/orders", "/api/v1/inventory", "/login",
		"/static/site.css", "/static/app.js", "/images/logo.png",
		"/search", "/account/profile", "/api/v1/telemetry",
	}
	httpHosts = []string{
		"shop.example.com", "www.example.com", "api.example.com",
	}
	httpAgents = []string{
		"Mozilla/4.0 (compatible; MSIE 5.5; Windows NT 5.0)",
		"Mozilla/4.76 [en] (X11; U; Linux 2.4.2 i686)",
		"Lynx/2.8.4rel.1 libwww-FM/2.14",
	}
	mailUsers = []string{
		"ops", "logistics", "watchofficer", "maintenance", "admin",
		"scheduler", "firecontrol", "navigation",
	}
	mailDomains = []string{"example.com", "fleet.example.mil", "lab.example.org"}
	dnsNames    = []string{
		"node01.cluster.local", "node02.cluster.local", "tds.cluster.local",
		"shop.example.com", "ntp.example.com", "mail.example.com",
		"console.cluster.local", "sensor-array.cluster.local",
	}
	shellCommands = []string{
		"ls -l /var/log", "ps -ef", "netstat -an", "df -k",
		"tail -f /var/log/messages", "uptime", "who", "cat motd",
		"vmstat 5", "iostat", "top -b -n 1",
	}
	loremWords = strings.Fields(`status report nominal track update bearing range
		doppler contact classification friendly unknown hostile engage hold
		weapons safe assign sector scan radar sonar telemetry heartbeat sync
		checkpoint commit rollback replica queue depth deadline slack margin`)
)

// dnsWire holds each dnsNames entry in DNS wire format: length-prefixed
// labels and the root's zero byte, encoded once.
var dnsWire = func() [][]byte {
	wire := make([][]byte, len(dnsNames))
	for i, name := range dnsNames {
		for _, label := range strings.Split(name, ".") {
			wire[i] = append(wire[i], byte(len(label)))
			wire[i] = append(wire[i], label...)
		}
		wire[i] = append(wire[i], 0)
	}
	return wire
}()

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

// numLorem is len(loremWords) as a constant, so that appendWords
// reduces each word draw by a constant modulus; init checks the two
// agree.
const numLorem = 34

// loremBound is math/rand's Int31n rejection bound for numLorem:
// rng.Intn(numLorem) draws again while Int31 returns more than it.
// Go 1 compatibility fixes both the seeded streams and Int31n, so
// appendWords can reproduce the draw exactly.
const loremBound = 1<<31 - 1 - (1<<31)%numLorem

// loremBlock is one vocabulary word zero-padded to 16 bytes, so that
// writing it is one fixed-size copy into 16 bytes of slack.
type loremBlock struct {
	text [16]byte
	n    int
}

var loremBlocks [numLorem]loremBlock

func init() {
	if len(loremWords) != numLorem {
		panic("traffic: numLorem is not len(loremWords)")
	}
	for i, w := range loremWords {
		if len(w) > len(loremBlocks[i].text) {
			panic("traffic: lorem word longer than its block: " + w)
		}
		loremBlocks[i].n = copy(loremBlocks[i].text[:], w)
	}
}

// payloadScratch pools the intermediate buffers payload synthesis
// assembles into. The builders run once per generated packet-with-data,
// so at high pps the strings.Builder/Sprintf intermediates they used to
// create were a major GC load; now each text builder borrows a scratch
// buffer, appends in place, and copies out one exact-size payload.
var payloadScratch = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

func getScratch() *[]byte { return payloadScratch.Get().(*[]byte) }

// finishPayload copies the assembled scratch into an exact-size payload
// and recycles the scratch.
func finishPayload(sp *[]byte, b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	*sp = b[:0]
	payloadScratch.Put(sp)
	return out
}

// appendWords appends n space-separated vocabulary words. Each word is
// drawn exactly as rng.Intn(numLorem) draws it, and written as one
// 16-byte block copy into the slack reserved up front, then kept to
// its length.
func appendWords(b []byte, rng *rand.Rand, n int) []byte {
	b = slices.Grow(b, 16*n)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ' ')
		}
		v := uint32(rng.Int31())
		for v > loremBound {
			v = uint32(rng.Int31())
		}
		w := &loremBlocks[v%numLorem]
		l := len(b)
		*(*[16]byte)(b[l : l+16]) = w.text
		b = b[:l+w.n]
	}
	return b
}

// appendPadLeft appends v in decimal, right-justified in a width-w
// field padded with the given byte (fmt's %6d / %02d shapes).
func appendPadLeft(b []byte, v uint64, w int, pad byte) []byte {
	var tmp [20]byte
	s := strconv.AppendUint(tmp[:0], v, 10)
	for i := len(s); i < w; i++ {
		b = append(b, pad)
	}
	return append(b, s...)
}

func words(rng *rand.Rand, n int) string {
	sp := getScratch()
	b := appendWords((*sp)[:0], rng, n)
	s := string(b)
	*sp = b[:0]
	payloadScratch.Put(sp)
	return s
}

// HTTPRequest builds a plausible HTTP/1.0 GET or POST request.
func HTTPRequest(rng *rand.Rand) []byte {
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
		body = appendWords(body, rng, 3)
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

// HTTPResponse builds a plausible HTTP/1.0 response with an HTML-ish body
// of roughly bodyLen bytes.
func HTTPResponse(rng *rand.Rand, bodyLen int) []byte {
	if bodyLen < 16 {
		bodyLen = 16
	}
	bsp := getScratch()
	body := append((*bsp)[:0], "<html><head><title>"...)
	body = appendWords(body, rng, 2)
	body = append(body, "</title></head><body>"...)
	for len(body) < bodyLen {
		body = append(body, "<p>"...)
		body = appendWords(body, rng, 8)
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

// SMTPExchange builds one side of an SMTP dialogue: either a client
// command sequence segment or a server reply, stepwise by index.
func SMTPExchange(rng *rand.Rand, step int, fromClient bool) []byte {
	from := pick(rng, mailUsers) + "@" + pick(rng, mailDomains)
	to := pick(rng, mailUsers) + "@" + pick(rng, mailDomains)
	if fromClient {
		switch step {
		case 0:
			return []byte("HELO " + pick(rng, mailDomains) + "\r\n")
		case 1:
			return []byte("MAIL FROM:<" + from + ">\r\n")
		case 2:
			return []byte("RCPT TO:<" + to + ">\r\n")
		case 3:
			return []byte("DATA\r\n")
		case 4:
			return []byte(fmt.Sprintf(
				"From: %s\r\nTo: %s\r\nSubject: %s\r\n\r\n%s\r\n.\r\n",
				from, to, words(rng, 4), words(rng, 30+rng.Intn(60))))
		default:
			return []byte("QUIT\r\n")
		}
	}
	switch step {
	case 0:
		return []byte("220 mail.example.com ESMTP ready\r\n")
	case 3:
		return []byte("354 End data with <CR><LF>.<CR><LF>\r\n")
	case 5:
		return []byte("221 Bye\r\n")
	default:
		return []byte("250 OK\r\n")
	}
}

// DNSQuery encodes a plausible DNS question section for a known name.
func DNSQuery(rng *rand.Rand) []byte {
	name := pick(rng, dnsWire)
	buf := make([]byte, 12, 12+len(name)+4)
	binary.BigEndian.PutUint16(buf[0:2], uint16(rng.Intn(1<<16))) // ID
	binary.BigEndian.PutUint16(buf[2:4], 0x0100)                  // RD
	binary.BigEndian.PutUint16(buf[4:6], 1)                       // QDCOUNT
	buf = append(buf, name...)
	buf = append(buf, 0, 1, 0, 1) // QTYPE=A QCLASS=IN
	return buf
}

// DNSResponse encodes a matching-looking answer with one A record.
func DNSResponse(rng *rand.Rand) []byte {
	q := DNSQuery(rng)
	q[2] |= 0x80 // QR
	binary.BigEndian.PutUint16(q[6:8], 1)
	// Compressed-pointer answer: name ptr, type A, class IN, TTL, rdlen, addr.
	ans := []byte{0xc0, 0x0c, 0, 1, 0, 1, 0, 0, 1, 0x2c, 0, 4,
		10, byte(rng.Intn(4) + 1), byte(rng.Intn(250)), byte(rng.Intn(250) + 1)}
	return append(q, ans...)
}

// InteractiveKeystrokes builds a fragment of a shell session: a short
// command or its output.
func InteractiveKeystrokes(rng *rand.Rand, fromClient bool) []byte {
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
		start := len(b)
		b = appendWords(b, rng, 1)
		for j := len(b) - start; j < 24; j++ { // fmt's %-24s left-justified pad
			b = append(b, ' ')
		}
		b = append(b, ' ')
		b = appendPadLeft(b, uint64(rng.Intn(99999)), 6, ' ')
		b = append(b, ' ')
		b = appendWords(b, rng, 4)
		b = append(b, '\n')
	}
	return finishPayload(sp, b)
}

// ClusterRPCMagic opens every inter-node real-time message the cluster
// profile emits; anomaly engines learn it as "normal" LAN content.
const ClusterRPCMagic = 0x52545243 // "RTRC"

// ClusterRPCKind distinguishes inter-node message types.
type ClusterRPCKind uint16

// Cluster message kinds: periodic state, track updates, heartbeats,
// checkpoint replication.
const (
	RPCStateVector ClusterRPCKind = iota + 1
	RPCTrackUpdate
	RPCHeartbeat
	RPCCheckpoint
)

// ClusterRPC builds a binary-framed real-time inter-node message:
// magic(4) kind(2) seq(4) deadlineUs(4) payload. The framing is fixed so
// anomaly detectors can profile it and signature engines can ignore it.
func ClusterRPC(rng *rand.Rand, kind ClusterRPCKind, seq uint32) []byte {
	var payloadLen int
	switch kind {
	case RPCStateVector:
		payloadLen = 64 + rng.Intn(64)
	case RPCTrackUpdate:
		payloadLen = 32 + rng.Intn(32)
	case RPCHeartbeat:
		payloadLen = 8
	case RPCCheckpoint:
		payloadLen = 512 + rng.Intn(1024)
	default:
		payloadLen = 16
	}
	buf := make([]byte, 14+payloadLen)
	binary.BigEndian.PutUint32(buf[0:4], ClusterRPCMagic)
	binary.BigEndian.PutUint16(buf[4:6], uint16(kind))
	binary.BigEndian.PutUint32(buf[6:10], seq)
	binary.BigEndian.PutUint32(buf[10:14], uint32(1000+rng.Intn(9000))) // deadline µs
	// Payload: structured little-endian floats-ish words, not noise.
	for i := 14; i+4 <= len(buf); i += 4 {
		binary.BigEndian.PutUint32(buf[i:i+4], rng.Uint32()&0x3FFFFFFF)
	}
	return buf
}

// bulkLineCap holds one BulkChunk line with the word kernel's slack:
// 8 hex digits and a space, then 16 bytes reserved for each of 6 words.
// The longest line, 99 bytes with its newline, fits.
const bulkLineCap = 9 + 6*16

const hexDigits = "0123456789abcdef"

// BulkChunk builds a segment of a file-transfer stream: compressible,
// structured content rather than uniform random bytes. Each line (8
// zero-padded hex digits of a random word, 6 vocabulary words and a
// newline) is built in a stack buffer and copied straight into the
// output; the last one is drawn whole and cut at n.
func BulkChunk(rng *rand.Rand, n int) []byte {
	if n <= 0 {
		n = 1024
	}
	out := make([]byte, n)
	var line [bulkLineCap]byte
	for pos := 0; pos < n; {
		v := rng.Uint32()
		for i := 7; i >= 0; i-- {
			line[i] = hexDigits[v&15]
			v >>= 4
		}
		line[8] = ' '
		b := appendWords(line[:9], rng, 6)
		b = append(b, '\n')
		pos += copy(out[pos:], b)
	}
	return out
}

// NTPPacket builds a 48-byte NTP client or server packet.
func NTPPacket(rng *rand.Rand, fromClient bool) []byte {
	b := make([]byte, 48)
	if fromClient {
		b[0] = 0x1B // LI=0 VN=3 Mode=3 (client)
	} else {
		b[0] = 0x1C // Mode=4 (server)
		b[1] = 2    // stratum
	}
	binary.BigEndian.PutUint64(b[40:48], uint64(rng.Int63())) // transmit ts
	return b
}

// FTPExchange builds one side of an FTP control dialogue, stepwise.
func FTPExchange(rng *rand.Rand, step int, fromClient bool) []byte {
	files := []string{"telemetry.log", "manifest.dat", "patch-2002-04.tar", "README", "config.bak"}
	if fromClient {
		switch step {
		case 0:
			return []byte("USER " + pick(rng, mailUsers) + "\r\n")
		case 1:
			return []byte("PASS ********\r\n")
		case 2:
			return []byte(fmt.Sprintf("PORT 10,1,1,%d,%d,%d\r\n", rng.Intn(250)+1, rng.Intn(250), rng.Intn(250)))
		case 3:
			return []byte("RETR " + pick(rng, files) + "\r\n")
		default:
			return []byte("QUIT\r\n")
		}
	}
	switch step {
	case 0:
		return []byte("331 Password required\r\n")
	case 1:
		return []byte("230 User logged in\r\n")
	case 2:
		return []byte("200 PORT command successful\r\n")
	case 3:
		return []byte("150 Opening data connection\r\n226 Transfer complete\r\n")
	default:
		return []byte("221 Goodbye\r\n")
	}
}

// POP3Exchange builds one side of a mailbox-retrieval dialogue, stepwise.
func POP3Exchange(rng *rand.Rand, step int, fromClient bool) []byte {
	if fromClient {
		switch step {
		case 0:
			return []byte("USER " + pick(rng, mailUsers) + "\r\n")
		case 1:
			return []byte("PASS ********\r\n")
		case 2:
			return []byte("STAT\r\n")
		case 3:
			return []byte("RETR 1\r\n")
		default:
			return []byte("QUIT\r\n")
		}
	}
	switch step {
	case 0, 1:
		return []byte("+OK\r\n")
	case 2:
		return []byte(fmt.Sprintf("+OK %d %d\r\n", 1+rng.Intn(9), 800+rng.Intn(4000)))
	case 3:
		return []byte(fmt.Sprintf("+OK message follows\r\nFrom: %s@%s\r\nSubject: %s\r\n\r\n%s\r\n.\r\n",
			pick(rng, mailUsers), pick(rng, mailDomains), words(rng, 3), words(rng, 40)))
	default:
		return []byte("+OK bye\r\n")
	}
}

var syslogFacilities = []string{"kern", "daemon", "auth", "cron", "local0"}

// SyslogMessage builds one RFC-3164-style event line.
func SyslogMessage(rng *rand.Rand) []byte {
	sp := getScratch()
	b := append((*sp)[:0], '<')
	b = strconv.AppendInt(b, int64(rng.Intn(191)), 10)
	b = append(b, ">node"...)
	b = appendPadLeft(b, uint64(rng.Intn(16)), 2, '0')
	b = append(b, ' ')
	b = append(b, pick(rng, syslogFacilities)...)
	b = append(b, '[')
	b = strconv.AppendInt(b, int64(100+rng.Intn(30000)), 10)
	b = append(b, "]: "...)
	b = appendWords(b, rng, 6+rng.Intn(8))
	return finishPayload(sp, b)
}

// RandomPayload builds n uniformly random bytes. It exists only for the
// Lesson-1 ablation: replaying the same loads with meaningless data to
// show payload-inspecting engines are not realistically exercised.
func RandomPayload(rng *rand.Rand, n int) []byte {
	b := make([]byte, n)
	rng.Read(b)
	return b
}
