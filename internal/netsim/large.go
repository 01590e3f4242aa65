package netsim

import (
	"fmt"
	"time"

	"repro/internal/packet"
	"repro/internal/simtime"
)

// LargeTopology is the segmented testbed: external hosts behind a border
// router, and a distribution switch fanning out to leaf switches, each
// leaf with its own SPAN port. It serves two experiments. Small, it is
// the sensor-placement testbed of the paper's no-load-balancer
// deployment — "the load may be statically spread out by placing sensors
// in separate subnets. Individual, statically placed sensors may
// overload or starve, and the protection of the network will be
// uneven." Large, it is the at-scale testbed: the event domains of a
// ShardedSim let tens of thousands of hosts simulate on multiple cores.
//
// Domain assignment is fixed by the topology: domain 0 holds the
// external switch, border router, and distribution switch; domain i+1
// holds leaf i with all its hosts and whatever sensors tap its mirror.
// The only cross-domain edges are the dist<->leaf trunks, so the
// lookahead is the trunk propagation delay.
//
//	ext hosts ── ext ── border ── dist ──┬── leaf0 ── hosts, mirror0   (domain 1)
//	        (domain 0)                   ├── leaf1 ── hosts, mirror1   (domain 2)
//	                                     └── ...
type LargeTopology struct {
	Fabric *Fabric
	Border *Router
	Ext    *Switch
	Dist   *Switch
	Leaves []*Switch
	// Trunks[i] is the cross-domain dist<->leaf i link.
	Trunks   []*Link
	External []*Host
	// Segment[i] holds leaf i's hosts.
	Segment [][]*Host
	Hosts   int
}

// LargeConfig parameterizes BuildLargeTopology.
type LargeConfig struct {
	// Segments is the number of leaf switches (default 8). Must equal
	// the coordinator's domain count minus one.
	Segments int
	// HostsPerSegment (default 40, max 4096).
	HostsPerSegment int
	// ExternalHosts (default 4).
	ExternalHosts int
	// HostLink configures host access links (NewLink defaults apply).
	HostLink LinkConfig
	// BackboneLink configures trunks. Its propagation delay becomes the
	// conservative lookahead; default 200µs (a metro-scale distribution
	// span), deliberately larger than the 50µs access default so the
	// parallel windows stay wide enough to batch useful work.
	BackboneLink LinkConfig
}

// LargeAddr returns the address of host h in segment s: 10.(s+1).hi.lo
// with h split across the low two octets, so a segment scales to
// thousands of hosts without leaving its /16.
func LargeAddr(s, h int) packet.Addr {
	return packet.IPv4(10, byte(s+1), byte(h>>8), byte(h&0xff))
}

// BuildLargeTopology wires the at-scale testbed across the coordinator's
// domains (which must number Segments+1) and finalizes the fabric's
// lookahead. The returned topology is ready to run; SPAN sinks attach
// after the build, since a mirror link never crosses domains.
func BuildLargeTopology(ss *simtime.ShardedSim, cfg LargeConfig) (*LargeTopology, error) {
	if cfg.Segments <= 0 {
		cfg.Segments = 8
	}
	if cfg.HostsPerSegment <= 0 {
		cfg.HostsPerSegment = 40
	}
	if cfg.ExternalHosts <= 0 {
		cfg.ExternalHosts = 4
	}
	if cfg.Segments > 254 {
		return nil, fmt.Errorf("netsim: %d segments exceeds the 254 the addressing plan carries", cfg.Segments)
	}
	if cfg.HostsPerSegment > 4096 {
		return nil, fmt.Errorf("netsim: %d hosts per segment exceeds the 4096 a leaf switch realistically fans out", cfg.HostsPerSegment)
	}
	if got := ss.Domains(); got != cfg.Segments+1 {
		return nil, fmt.Errorf("netsim: coordinator has %d domains, topology needs %d (one per segment + border/external)", got, cfg.Segments+1)
	}
	if cfg.BackboneLink.BandwidthBps <= 0 {
		cfg.BackboneLink.BandwidthBps = 10e9
	}
	if cfg.BackboneLink.BufferBytes <= 0 {
		cfg.BackboneLink.BufferBytes = 4 << 20
	}
	if cfg.BackboneLink.Propagation <= 0 {
		cfg.BackboneLink.Propagation = 200 * time.Microsecond
	}

	f := NewFabric(ss)
	core := ss.Domain(0)
	t := &LargeTopology{
		Fabric: f,
		Border: NewRouter(core, "border-router", 20*time.Microsecond),
		Ext:    NewSwitch(core, "ext-switch", 5*time.Microsecond),
		Dist:   NewSwitch(core, "dist-switch", 5*time.Microsecond),
	}
	for _, e := range []Endpoint{t.Border, t.Ext, t.Dist} {
		if err := f.Place(0, e); err != nil {
			return nil, err
		}
	}

	extTrunk := cfg.BackboneLink
	extTrunk.Name = "ext-trunk"
	extLink, err := f.Link(t.Ext, t.Border, extTrunk)
	if err != nil {
		return nil, err
	}
	t.Ext.SetUplink(extLink)

	distTrunk := cfg.BackboneLink
	distTrunk.Name = "dist-trunk"
	distLink, err := f.Link(t.Border, t.Dist, distTrunk)
	if err != nil {
		return nil, err
	}
	t.Dist.SetUplink(distLink)
	t.Border.AddRoute(packet.IPv4(10, 0, 0, 0), 8, distLink)
	t.Border.AddRoute(ExtPrefix, 16, extLink)

	for s := 0; s < cfg.Segments; s++ {
		dom := s + 1
		leafSim := ss.Domain(dom)
		leaf := NewSwitch(leafSim, fmt.Sprintf("leaf%03d", s), 5*time.Microsecond)
		if err := f.Place(dom, leaf); err != nil {
			return nil, err
		}
		leafTrunk := cfg.BackboneLink
		leafTrunk.Name = fmt.Sprintf("leaf%03d-trunk", s)
		up, err := f.Link(t.Dist, leaf, leafTrunk)
		if err != nil {
			return nil, err
		}
		leaf.SetUplink(up)
		segment := make([]*Host, 0, cfg.HostsPerSegment)
		for h := 0; h < cfg.HostsPerSegment; h++ {
			host := NewHost(leafSim, fmt.Sprintf("s%03dn%04d", s, h), LargeAddr(s, h))
			leaf.Connect(host, cfg.HostLink)
			segment = append(segment, host)
		}
		// The distribution switch routes the segment's whole /16 via one
		// table entry per host (exact-match table); all of them point at
		// the same trunk.
		for _, host := range segment {
			t.Dist.AddRoute(host.Addr(), up)
		}
		t.Leaves = append(t.Leaves, leaf)
		t.Trunks = append(t.Trunks, up)
		t.Segment = append(t.Segment, segment)
		t.Hosts += len(segment)
	}

	for i := 0; i < cfg.ExternalHosts; i++ {
		h := NewHost(core, fmt.Sprintf("ext%02d", i), ExternalAddr(i))
		t.Ext.Connect(h, cfg.HostLink)
		t.External = append(t.External, h)
	}

	if err := f.Finalize(); err != nil {
		return nil, err
	}
	return t, nil
}

// AttachLeafMirror connects a passive sink to leaf i's SPAN port. The
// sink lives in the leaf's domain (i+1) — a sensor tapping the mirror
// must be built against that domain's Sim.
func (t *LargeTopology) AttachLeafMirror(i int, sink Endpoint, cfg LinkConfig) (*Link, error) {
	if i < 0 || i >= len(t.Leaves) {
		return nil, fmt.Errorf("netsim: no leaf %d", i)
	}
	if cfg.Name == "" {
		cfg.Name = fmt.Sprintf("span-leaf%03d", i)
	}
	return t.attachMirror(i+1, t.Leaves[i], sink, cfg)
}

// AttachDistMirror connects a passive sink to the distribution switch's
// SPAN port — the single-central-sensor placement. The sink lives in
// domain 0, next to the distribution switch.
func (t *LargeTopology) AttachDistMirror(sink Endpoint, cfg LinkConfig) (*Link, error) {
	if cfg.Name == "" {
		cfg.Name = "span-dist"
	}
	return t.attachMirror(0, t.Dist, sink, cfg)
}

// attachMirror places sink in sw's domain dom and makes it sw's SPAN.
func (t *LargeTopology) attachMirror(dom int, sw *Switch, sink Endpoint, cfg LinkConfig) (*Link, error) {
	if err := t.Fabric.Place(dom, sink); err != nil {
		return nil, err
	}
	l, err := t.Fabric.Link(sw, sink, cfg)
	if err != nil {
		return nil, err
	}
	sw.SetMirror(l)
	return l, nil
}

// SegmentSim returns the Sim driving segment s's domain.
func (t *LargeTopology) SegmentSim(s int) *simtime.Sim { return t.Fabric.Sim(s + 1) }

// CoreSim returns domain 0's Sim (border, external, distribution).
func (t *LargeTopology) CoreSim() *simtime.Sim { return t.Fabric.Sim(0) }
