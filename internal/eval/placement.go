package eval

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// PlacementResult compares sensor placements on the segmented topology
// (netsim.LargeTopology):
// a single central SPAN at the distribution switch versus one sensor per
// subnet. Visibility is counted over labeled attack packets, separating
// a north-south exploit from an intra-subnet insider pull.
type PlacementResult struct {
	// CentralSawExploit / CentralSawInsider: central SPAN visibility.
	CentralSawExploit bool
	CentralSawInsider bool
	// LeafSawExploit / LeafSawInsider: any per-subnet sensor's visibility.
	LeafSawExploit bool
	LeafSawInsider bool
	// CentralPackets / LeafPackets count attack packets observed.
	CentralPackets uint64
	LeafPackets    uint64
}

// attackVisibility runs a fixed two-attack script over a two-segment
// LargeTopology (two hosts per segment, one external host) with the
// given tap attachment and reports what was seen. The coordinator runs
// serially, so the taps in different domains may share the counter.
func attackVisibility(seed int64, attach func(top *netsim.LargeTopology, counter func(p *packet.Packet)) error) (sawExploit, sawInsider bool, packets uint64) {
	ss, err := simtime.NewSharded(seed, 3)
	if err != nil {
		panic(err)
	}
	defer ss.Close()
	top, err := netsim.BuildLargeTopology(ss, netsim.LargeConfig{Segments: 2, HostsPerSegment: 2, ExternalHosts: 1})
	if err != nil {
		panic(err)
	}
	var exploitSeen, insiderSeen bool
	var count uint64
	err = attach(top, func(p *packet.Packet) {
		if !p.Truth.Malicious {
			return
		}
		count++
		switch p.Truth.Technique {
		case "exploit":
			exploitSeen = true
		case "insider-misuse":
			insiderSeen = true
		}
	})
	if err != nil {
		panic(err)
	}

	// North-south exploit: external host to subnet 0.
	ext := top.External[0]
	victim := top.Segment[0][0]
	top.CoreSim().MustSchedule(time.Millisecond, func() {
		ext.Send(&packet.Packet{
			Dst: victim.Addr(), SrcPort: 4000, DstPort: 80, Proto: packet.ProtoTCP,
			Flags:   packet.ACK | packet.PSH,
			Payload: []byte("GET /cgi-bin/phf?x HTTP/1.0\r\n\r\n"),
			Truth:   packet.Label{Malicious: true, AttackID: "a1", Technique: "exploit"},
		})
	})
	// Intra-subnet insider: host to host on the same leaf, never leaving
	// the leaf switch.
	insider := top.Segment[1][0]
	target := top.Segment[1][1]
	top.SegmentSim(1).MustSchedule(2*time.Millisecond, func() {
		insider.Send(&packet.Packet{
			Dst: target.Addr(), SrcPort: 4001, DstPort: 514, Proto: packet.ProtoTCP,
			Flags:   packet.ACK | packet.PSH,
			Payload: []byte("cat /etc/shadow\n"),
			Truth:   packet.Label{Malicious: true, AttackID: "a2", Technique: "insider-misuse"},
		})
	})
	ss.Run()
	return exploitSeen, insiderSeen, count
}

// MeasurePlacement runs the visibility comparison. The structural result
// the paper's placement warning predicts: the central sensor is blind to
// intra-subnet insider traffic; per-subnet placement sees it. No command
// runs it: it is the placement ablation (BenchmarkAblationPlacement)
// that DESIGN.md lists, pinned by TestPlacementCentralBlindToIntraSubnet.
func MeasurePlacement(seed int64) *PlacementResult {
	res := &PlacementResult{}
	res.CentralSawExploit, res.CentralSawInsider, res.CentralPackets = attackVisibility(seed,
		func(top *netsim.LargeTopology, counter func(p *packet.Packet)) error {
			sink := netsim.NewSink("central")
			sink.OnPacket = counter
			_, err := top.AttachDistMirror(sink, netsim.LinkConfig{BandwidthBps: 10e9})
			return err
		})
	res.LeafSawExploit, res.LeafSawInsider, res.LeafPackets = attackVisibility(seed,
		func(top *netsim.LargeTopology, counter func(p *packet.Packet)) error {
			for i := range top.Leaves {
				sink := netsim.NewSink("leaf-sensor")
				sink.OnPacket = counter
				if _, err := top.AttachLeafMirror(i, sink, netsim.LinkConfig{BandwidthBps: 10e9}); err != nil {
					return err
				}
			}
			return nil
		})
	return res
}
