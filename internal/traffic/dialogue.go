package traffic

import (
	"math/rand"
	"time"

	"repro/internal/packet"
)

// MSS is the maximum application bytes carried per data segment.
const MSS = 1460

// Step is one application message within a session, sent Gap after the
// previous step completed.
type Step struct {
	FromClient bool
	Payload    []byte
	Gap        time.Duration
}

// Dialogue is a complete application-level session script. The generator
// wraps it in transport framing (TCP handshake/teardown or bare UDP).
type Dialogue struct {
	Kind  AppKind
	Proto packet.Proto
	Steps []Step
}

// PacketCount returns the number of packets the dialogue will emit once
// framed: data segments plus TCP handshake and teardown overhead.
func (d Dialogue) PacketCount() int {
	n := 0
	for _, s := range d.Steps {
		seg := (len(s.Payload) + MSS - 1) / MSS
		if seg == 0 {
			seg = 1
		}
		n += seg
	}
	if d.Proto == packet.ProtoTCP {
		n += 5 // SYN, SYN|ACK, ACK, FIN|ACK, ACK
	}
	return n
}

// thinkTime returns a human/application pause in a plausible range.
func thinkTime(rng *rand.Rand, base time.Duration) time.Duration {
	return base + time.Duration(rng.Int63n(int64(base)))
}

// BuildDialogue synthesizes a session script for the kind. When
// randomPayloads is true every payload is replaced by uniform random bytes
// of the same length — the Lesson-1 ablation knob.
func BuildDialogue(rng *rand.Rand, kind AppKind, randomPayloads bool) Dialogue {
	var d Dialogue
	d.Kind = kind
	d.Proto = packet.ProtoTCP
	switch kind {
	case AppHTTP:
		// 1-4 request/response pairs on one connection.
		pairs := 1 + rng.Intn(4)
		for i := 0; i < pairs; i++ {
			d.Steps = append(d.Steps,
				Step{FromClient: true, Payload: HTTPRequest(rng), Gap: thinkTime(rng, 30*time.Millisecond)},
				Step{FromClient: false, Payload: HTTPResponse(rng, 256+rng.Intn(6<<10)), Gap: thinkTime(rng, 5*time.Millisecond)},
			)
		}
	case AppSMTP:
		d.Steps = append(d.Steps, Step{FromClient: false, Payload: SMTPExchange(rng, 0, false), Gap: thinkTime(rng, 5*time.Millisecond)})
		for step := 0; step <= 5; step++ {
			d.Steps = append(d.Steps,
				Step{FromClient: true, Payload: SMTPExchange(rng, step, true), Gap: thinkTime(rng, 10*time.Millisecond)},
				Step{FromClient: false, Payload: SMTPExchange(rng, step, false), Gap: thinkTime(rng, 5*time.Millisecond)},
			)
		}
	case AppDNS:
		d.Proto = packet.ProtoUDP
		d.Steps = append(d.Steps,
			Step{FromClient: true, Payload: DNSQuery(rng)},
			Step{FromClient: false, Payload: DNSResponse(rng), Gap: thinkTime(rng, 2*time.Millisecond)},
		)
	case AppInteractive:
		exchanges := 3 + rng.Intn(12)
		for i := 0; i < exchanges; i++ {
			d.Steps = append(d.Steps,
				Step{FromClient: true, Payload: InteractiveKeystrokes(rng, true), Gap: thinkTime(rng, 800*time.Millisecond)},
				Step{FromClient: false, Payload: InteractiveKeystrokes(rng, false), Gap: thinkTime(rng, 20*time.Millisecond)},
			)
		}
	case AppClusterRPC:
		d.Proto = packet.ProtoUDP
		msgs := 4 + rng.Intn(16)
		for i := 0; i < msgs; i++ {
			kinds := []ClusterRPCKind{RPCStateVector, RPCTrackUpdate, RPCHeartbeat, RPCCheckpoint}
			k := kinds[rng.Intn(len(kinds))]
			d.Steps = append(d.Steps, Step{
				FromClient: true,
				Payload:    ClusterRPC(rng, k, uint32(i)),
				Gap:        time.Duration(1+rng.Intn(10)) * time.Millisecond, // tight real-time cadence
			})
			if k == RPCHeartbeat { // heartbeats are acknowledged
				d.Steps = append(d.Steps, Step{
					FromClient: false,
					Payload:    ClusterRPC(rng, RPCHeartbeat, uint32(i)),
					Gap:        time.Millisecond,
				})
			}
		}
	case AppBulk:
		chunks := 8 + rng.Intn(56)
		for i := 0; i < chunks; i++ {
			d.Steps = append(d.Steps, Step{
				FromClient: i%16 == 0, // occasional client-side window/ack data
				Payload:    BulkChunk(rng, 1024+rng.Intn(3*1024)),
				Gap:        time.Duration(200+rng.Intn(800)) * time.Microsecond,
			})
		}
	case AppNTP:
		d.Proto = packet.ProtoUDP
		d.Steps = append(d.Steps,
			Step{FromClient: true, Payload: NTPPacket(rng, true)},
			Step{FromClient: false, Payload: NTPPacket(rng, false), Gap: thinkTime(rng, 5*time.Millisecond)},
		)
	case AppFTP:
		for step := 0; step <= 4; step++ {
			d.Steps = append(d.Steps,
				Step{FromClient: true, Payload: FTPExchange(rng, step, true), Gap: thinkTime(rng, 100*time.Millisecond)},
				Step{FromClient: false, Payload: FTPExchange(rng, step, false), Gap: thinkTime(rng, 10*time.Millisecond)},
			)
		}
	case AppPOP3:
		d.Steps = append(d.Steps, Step{FromClient: false, Payload: []byte("+OK POP3 ready\r\n"), Gap: thinkTime(rng, 5*time.Millisecond)})
		for step := 0; step <= 4; step++ {
			d.Steps = append(d.Steps,
				Step{FromClient: true, Payload: POP3Exchange(rng, step, true), Gap: thinkTime(rng, 50*time.Millisecond)},
				Step{FromClient: false, Payload: POP3Exchange(rng, step, false), Gap: thinkTime(rng, 10*time.Millisecond)},
			)
		}
	case AppSyslog:
		d.Proto = packet.ProtoUDP
		msgs := 3 + rng.Intn(10)
		for i := 0; i < msgs; i++ {
			d.Steps = append(d.Steps, Step{
				FromClient: true,
				Payload:    SyslogMessage(rng),
				Gap:        time.Duration(50+rng.Intn(400)) * time.Millisecond,
			})
		}
	default:
		d.Steps = append(d.Steps, Step{FromClient: true, Payload: []byte("noop")})
	}
	if randomPayloads {
		for i := range d.Steps {
			d.Steps[i].Payload = RandomPayload(rng, len(d.Steps[i].Payload))
		}
	}
	return d
}
