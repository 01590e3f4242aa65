package traffic

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/packet"
	"repro/internal/simtime"
)

// Endpoints lists the addresses sessions may run between.
type Endpoints struct {
	External []packet.Addr
	Cluster  []packet.Addr
}

// Emit receives each generated packet at the virtual time it should leave
// its source (packet.Src). Adapters route it into a netsim host or append
// it to a trace.
type Emit func(p *packet.Packet)

// Generator drives background sessions against the testbed: session
// arrivals form a Poisson process at a configurable rate, each session
// plays out a protocol dialogue in virtual time.
type Generator struct {
	sim     *simtime.Sim
	rng     *rand.Rand
	profile Profile
	eps     Endpoints
	emit    Emit
	seq     *packet.SeqCounter

	// handshakeRTT approximates one LAN round trip for TCP framing gaps.
	handshakeRTT time.Duration

	running bool
	rate    float64 // sessions per second

	// Stats.
	SessionsStarted uint64
	PacketsEmitted  uint64
	BytesEmitted    uint64
}

// NewGenerator builds a generator. seq may be shared with attack scenarios
// so every packet in a run has a unique sequence number.
func NewGenerator(sim *simtime.Sim, profile Profile, eps Endpoints, seq *packet.SeqCounter, emit Emit) (*Generator, error) {
	if len(eps.Cluster) == 0 {
		return nil, fmt.Errorf("traffic: profile %q needs at least one cluster endpoint", profile.Name)
	}
	if len(eps.External) == 0 {
		return nil, fmt.Errorf("traffic: profile %q needs at least one external endpoint", profile.Name)
	}
	if emit == nil {
		return nil, fmt.Errorf("traffic: nil emit")
	}
	if seq == nil {
		seq = &packet.SeqCounter{}
	}
	return &Generator{
		sim:          sim,
		rng:          sim.Stream("traffic/" + profile.Name),
		profile:      profile,
		eps:          eps,
		emit:         emit,
		seq:          seq,
		handshakeRTT: 500 * time.Microsecond,
	}, nil
}

// SessionRateForPps converts a target aggregate packet rate into a session
// arrival rate using the profile's empirical packets-per-session mean,
// memoized per distinct profile content (see calibratedAvgPackets).
func (g *Generator) SessionRateForPps(targetPps float64) float64 {
	avg := calibratedAvgPackets(g.profile)
	if avg <= 0 {
		return targetPps
	}
	return targetPps / avg
}

// Start begins Poisson session arrivals at rate sessions/second.
func (g *Generator) Start(rate float64) error {
	if rate <= 0 {
		return fmt.Errorf("traffic: session rate %v must be positive", rate)
	}
	if g.running {
		return fmt.Errorf("traffic: generator already running")
	}
	g.rate = rate
	g.running = true
	g.scheduleNextArrival()
	return nil
}

// Stop halts new session arrivals; in-flight sessions finish.
func (g *Generator) Stop() { g.running = false }

func (g *Generator) scheduleNextArrival() {
	if !g.running {
		return
	}
	gap := time.Duration(g.expovariate(g.rate) * float64(time.Second))
	g.sim.MustSchedule(gap, func() {
		if !g.running {
			return
		}
		g.StartSession()
		g.scheduleNextArrival()
	})
}

// expovariate draws an exponential interarrival with the given rate.
func (g *Generator) expovariate(rate float64) float64 {
	u := g.rng.Float64()
	for u == 0 {
		u = g.rng.Float64()
	}
	return -math.Log(u) / rate
}

// StartSession begins one session immediately, chosen per the profile mix.
func (g *Generator) StartSession() {
	m := g.profile.Pick(g.rng)
	d := BuildDialogue(g.rng, m.Kind, g.profile.RandomPayloads)
	client, server := g.pickEndpoints(m.Locality)
	g.PlaySession(d, client, server, packet.Label{})
}

// pickEndpoints chooses client and server addresses for the locality.
func (g *Generator) pickEndpoints(loc Locality) (client, server packet.Addr) {
	pickFrom := func(xs []packet.Addr) packet.Addr { return xs[g.rng.Intn(len(xs))] }
	switch loc {
	case NorthSouth:
		return pickFrom(g.eps.External), pickFrom(g.eps.Cluster)
	case Outbound:
		return pickFrom(g.eps.Cluster), pickFrom(g.eps.External)
	default: // EastWest
		c := pickFrom(g.eps.Cluster)
		s := pickFrom(g.eps.Cluster)
		for s == c && len(g.eps.Cluster) > 1 {
			s = pickFrom(g.eps.Cluster)
		}
		return c, s
	}
}

// PlaySession schedules every packet of a framed dialogue between client
// and server, stamping each with the given ground-truth label. Attack
// scenarios reuse this path so malicious sessions are framed identically
// to benign ones.
func (g *Generator) PlaySession(d Dialogue, client, server packet.Addr, truth packet.Label) {
	cport := uint16(1024 + g.rng.Intn(64000))
	sport := d.Kind.WellKnownPort()
	pp := planPool.Get().(*[]TimedPacket)
	plan := appendDialogue((*pp)[:0], g.rng, d, g.handshakeRTT)
	g.SessionsStarted++
	for _, tp := range plan {
		p := tp.Packet
		p.Seq = g.seq.Next()
		p.Truth = truth
		if tp.FromClient {
			p.Src, p.Dst = client, server
			p.SrcPort, p.DstPort = cport, sport
		} else {
			p.Src, p.Dst = server, client
			p.SrcPort, p.DstPort = sport, cport
		}
		g.sim.MustSchedule(tp.Offset, func() {
			g.PacketsEmitted++
			g.BytesEmitted += uint64(p.WireLen())
			g.emit(p)
		})
	}
	// The scheduled closures capture only the packet pointers, so the
	// plan slice itself can go straight back to the pool — cleared so it
	// doesn't pin the packets beyond their own lifetimes.
	for i := range plan {
		plan[i].Packet = nil
	}
	*pp = plan[:0]
	planPool.Put(pp)
}

// TimedPacket is one planned transmission: a packet without addressing,
// plus its offset from session start and its direction.
type TimedPacket struct {
	Offset     time.Duration
	FromClient bool
	Packet     *packet.Packet
}

// planPool recycles the per-session framing plans PlaySession builds
// and immediately discards; at hundreds of sessions per virtual second
// the slice churn otherwise dominates the generator's allocations.
var planPool = sync.Pool{New: func() any { return new([]TimedPacket) }}

// FrameDialogue expands a dialogue into transport-framed timed packets:
// TCP sessions get a three-way handshake, MSS segmentation with PSH on
// final segments, and FIN teardown; UDP dialogues map steps directly to
// datagrams. No command calls it (the generator uses appendDialogue): it
// is the instrument of the gated BenchmarkFrameDialogue.
func FrameDialogue(rng *rand.Rand, d Dialogue, rtt time.Duration) []TimedPacket {
	return appendDialogue(nil, rng, d, rtt)
}

// appendDialogue is FrameDialogue onto a caller-owned plan slice, the
// form the generator uses with pooled plans.
func appendDialogue(plan []TimedPacket, rng *rand.Rand, d Dialogue, rtt time.Duration) []TimedPacket {
	var at time.Duration
	halfRTT := rtt / 2
	add := func(fromClient bool, flags packet.TCPFlags, payload []byte, gap time.Duration) {
		at += gap
		plan = append(plan, TimedPacket{
			Offset:     at,
			FromClient: fromClient,
			Packet:     &packet.Packet{Proto: d.Proto, Flags: flags, Payload: payload, TTL: 64},
		})
	}
	if d.Proto == packet.ProtoTCP {
		add(true, packet.SYN, nil, 0)
		add(false, packet.SYN|packet.ACK, nil, halfRTT)
		add(true, packet.ACK, nil, halfRTT)
	}
	for _, s := range d.Steps {
		payload := s.Payload
		gap := s.Gap
		if len(payload) == 0 {
			if d.Proto == packet.ProtoTCP {
				add(s.FromClient, packet.ACK, nil, gap)
			} else {
				add(s.FromClient, 0, nil, gap)
			}
			continue
		}
		for off := 0; off < len(payload); off += MSS {
			end := off + MSS
			if end > len(payload) {
				end = len(payload)
			}
			var flags packet.TCPFlags
			if d.Proto == packet.ProtoTCP {
				flags = packet.ACK
				if end == len(payload) {
					flags |= packet.PSH
				}
			}
			segGap := gap
			if off > 0 {
				// Back-to-back segments separated by a small pacing gap.
				segGap = time.Duration(50+rng.Intn(150)) * time.Microsecond
			}
			add(s.FromClient, flags, payload[off:end], segGap)
		}
	}
	if d.Proto == packet.ProtoTCP {
		add(true, packet.FIN|packet.ACK, nil, halfRTT)
		add(false, packet.ACK, nil, halfRTT)
	}
	return plan
}
