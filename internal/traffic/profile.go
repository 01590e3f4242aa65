package traffic

import (
	"fmt"
	"math/rand"
)

// Locality says where a session's endpoints live relative to the
// protected LAN. The paper stresses (Section 4) that "distributed systems
// with high levels of inter-host trust on a high-speed LAN will have
// distinctive traffic compared to that of a web server in an e-commerce
// shop"; locality is half of that distinction.
type Locality int

// Session localities.
const (
	// NorthSouth: external client to a LAN server.
	NorthSouth Locality = iota
	// EastWest: LAN host to LAN host (intra-cluster).
	EastWest
	// Outbound: LAN client to an external server.
	Outbound
)

// String names the locality.
func (l Locality) String() string {
	switch l {
	case NorthSouth:
		return "north-south"
	case EastWest:
		return "east-west"
	case Outbound:
		return "outbound"
	default:
		return fmt.Sprintf("locality(%d)", int(l))
	}
}

// MixEntry weights one application kind within a profile.
type MixEntry struct {
	Kind     AppKind
	Locality Locality
	Weight   float64
}

// Profile characterizes a site's background traffic.
type Profile struct {
	Name string
	Mix  []MixEntry
	// RandomPayloads replaces every payload with uniform random bytes of
	// the same length (the Lesson-1 ablation).
	RandomPayloads bool
}

// EcommerceEdge models the commercial web-shop traffic the paper says
// commercial IDSs are tuned for: mostly north-south HTTP with mail, DNS
// and a little interactive administration.
func EcommerceEdge() Profile {
	return Profile{
		Name: "ecommerce-edge",
		Mix: []MixEntry{
			{Kind: AppHTTP, Locality: NorthSouth, Weight: 62},
			{Kind: AppSMTP, Locality: NorthSouth, Weight: 12},
			{Kind: AppDNS, Locality: Outbound, Weight: 14},
			{Kind: AppInteractive, Locality: NorthSouth, Weight: 4},
			{Kind: AppBulk, Locality: NorthSouth, Weight: 6},
			{Kind: AppNTP, Locality: Outbound, Weight: 2},
		},
	}
}

// RealTimeCluster models the distributed real-time system the paper's
// sponsors run: dominated by tightly-cadenced east-west inter-node RPC and
// replication on a high-trust LAN, with thin north-south management.
func RealTimeCluster() Profile {
	return Profile{
		Name: "realtime-cluster",
		Mix: []MixEntry{
			{Kind: AppClusterRPC, Locality: EastWest, Weight: 58},
			{Kind: AppBulk, Locality: EastWest, Weight: 22},
			{Kind: AppDNS, Locality: EastWest, Weight: 6},
			{Kind: AppNTP, Locality: EastWest, Weight: 6},
			{Kind: AppInteractive, Locality: NorthSouth, Weight: 5},
			{Kind: AppHTTP, Locality: NorthSouth, Weight: 3},
		},
	}
}

// EnterpriseCampus models a general administrative network: mail-heavy
// with FTP distribution, mailbox polling, and centralized syslog — the
// third deployment flavour between the e-commerce edge and the real-time
// cluster.
func EnterpriseCampus() Profile {
	return Profile{
		Name: "enterprise-campus",
		Mix: []MixEntry{
			{Kind: AppHTTP, Locality: Outbound, Weight: 30},
			{Kind: AppSMTP, Locality: NorthSouth, Weight: 16},
			{Kind: AppPOP3, Locality: EastWest, Weight: 16},
			{Kind: AppFTP, Locality: EastWest, Weight: 10},
			{Kind: AppSyslog, Locality: EastWest, Weight: 12},
			{Kind: AppDNS, Locality: Outbound, Weight: 10},
			{Kind: AppInteractive, Locality: EastWest, Weight: 4},
			{Kind: AppNTP, Locality: Outbound, Weight: 2},
		},
	}
}

// WithRandomPayloads returns a copy of p with the Lesson-1 knob set.
func (p Profile) WithRandomPayloads() Profile {
	p.RandomPayloads = true
	p.Name += "+random-payloads"
	return p
}

// totalWeight sums mix weights.
func (p Profile) totalWeight() float64 {
	var t float64
	for _, m := range p.Mix {
		t += m.Weight
	}
	return t
}

// Pick draws a mix entry proportionally to weight.
func (p Profile) Pick(rng *rand.Rand) MixEntry {
	if len(p.Mix) == 0 {
		return MixEntry{Kind: AppHTTP, Locality: NorthSouth, Weight: 1}
	}
	x := rng.Float64() * p.totalWeight()
	for _, m := range p.Mix {
		x -= m.Weight
		if x < 0 {
			return m
		}
	}
	return p.Mix[len(p.Mix)-1]
}

// AvgPacketsPerSession estimates the mean framed packet count of a session
// under this profile by sampling dialogue synthesis. It is the uncached
// reference; SessionRateForPps reads a process-wide memo of it.
func (p Profile) AvgPacketsPerSession(rng *rand.Rand, samples int) float64 {
	if samples <= 0 {
		samples = 200
	}
	total := 0
	for i := 0; i < samples; i++ {
		m := p.Pick(rng)
		total += BuildDialogue(rng, m.Kind, p.RandomPayloads).PacketCount()
	}
	return float64(total) / float64(samples)
}
