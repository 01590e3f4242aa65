package netsim

import (
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/simtime"
)

// placementTopology builds a small segmented testbed on a serial
// coordinator, sized like the placement ablation's.
func placementTopology(t *testing.T, segments, hosts int) (*simtime.ShardedSim, *LargeTopology) {
	t.Helper()
	ss, err := simtime.NewSharded(1, segments+1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ss.Close)
	top, err := BuildLargeTopology(ss, LargeConfig{Segments: segments, HostsPerSegment: hosts, ExternalHosts: 1})
	if err != nil {
		t.Fatal(err)
	}
	return ss, top
}

func TestSegmentedTopologyRouting(t *testing.T) {
	ss, top := placementTopology(t, 3, 2)
	if top.Hosts != 6 || len(top.Leaves) != 3 {
		t.Fatalf("topology sizes: %d hosts, %d leaves", top.Hosts, len(top.Leaves))
	}
	// North-south reaches every subnet.
	for s := 0; s < 3; s++ {
		dst := top.Segment[s][0]
		top.External[0].Send(pkt(top.External[0].Addr(), dst.Addr(), 64))
	}
	ss.Run()
	for s := 0; s < 3; s++ {
		if top.Segment[s][0].Received != 1 {
			t.Fatalf("subnet %d unreachable", s)
		}
	}
}

func TestSegmentedCrossSubnetTraffic(t *testing.T) {
	ss, top := placementTopology(t, 2, 2)
	src := top.Segment[0][0]
	dst := top.Segment[1][1]
	src.Send(pkt(src.Addr(), dst.Addr(), 64))
	ss.Run()
	if dst.Received != 1 {
		t.Fatal("cross-subnet traffic lost")
	}
	// Cross-subnet stays below the border router.
	if top.Border.Forwarded != 0 {
		t.Fatal("east-west crossed the border router")
	}
}

func TestLeafMirrorsSeeOnlyTheirSubnet(t *testing.T) {
	ss, top := placementTopology(t, 2, 2)
	sink0 := NewSink("sensor0")
	sink1 := NewSink("sensor1")
	if _, err := top.AttachLeafMirror(0, sink0, LinkConfig{BandwidthBps: 10e9}); err != nil {
		t.Fatal(err)
	}
	if _, err := top.AttachLeafMirror(1, sink1, LinkConfig{BandwidthBps: 10e9}); err != nil {
		t.Fatal(err)
	}
	// Intra-subnet-0 traffic: only sensor0 sees it.
	a, b := top.Segment[0][0], top.Segment[0][1]
	a.Send(pkt(a.Addr(), b.Addr(), 64))
	ss.Run()
	if sink0.Count == 0 {
		t.Fatal("sensor0 blind to its own subnet")
	}
	if sink1.Count != 0 {
		t.Fatal("sensor1 saw another subnet's intra-switch traffic")
	}
}

func TestStaticPlacementIsUneven(t *testing.T) {
	// The paper: "Individual, statically placed sensors may overload or
	// starve, and the protection of the network will be uneven." Load all
	// traffic at subnet 0: its sensor's slow SPAN drops while subnet 1's
	// sensor starves.
	ss, top := placementTopology(t, 2, 2)
	sink0 := NewSink("sensor0")
	sink1 := NewSink("sensor1")
	span0, err := top.AttachLeafMirror(0, sink0, LinkConfig{BandwidthBps: 2e6, BufferBytes: 4000})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := top.AttachLeafMirror(1, sink1, LinkConfig{BandwidthBps: 2e6, BufferBytes: 4000}); err != nil {
		t.Fatal(err)
	}
	a, b := top.Segment[0][0], top.Segment[0][1]
	s0 := top.SegmentSim(0)
	for i := 0; i < 300; i++ {
		s0.MustSchedule(time.Duration(i)*100*time.Microsecond, func() {
			a.Send(pkt(a.Addr(), b.Addr(), 1000))
		})
	}
	ss.Run()
	if st := span0.StatsToward(sink0); st.Dropped == 0 {
		t.Fatal("hot subnet's sensor did not overload")
	}
	if sink1.Count != 0 {
		t.Fatal("cold subnet's sensor did not starve")
	}
	// Production traffic is unaffected by sensor overload.
	if b.Received != 300 {
		t.Fatalf("production delivery %d/300", b.Received)
	}
}

func TestDistMirrorSeesCrossSubnetOnly(t *testing.T) {
	ss, top := placementTopology(t, 2, 2)
	central := NewSink("central")
	if _, err := top.AttachDistMirror(central, LinkConfig{BandwidthBps: 10e9}); err != nil {
		t.Fatal(err)
	}

	// Intra-leaf traffic never reaches the distribution switch: the
	// central sensor placement has a structural blind spot.
	a, b := top.Segment[0][0], top.Segment[0][1]
	a.Send(pkt(a.Addr(), b.Addr(), 64))
	ss.RunUntil(10 * time.Millisecond)
	if b.Received != 1 {
		t.Fatal("intra-leaf traffic lost")
	}
	if central.Count != 0 {
		t.Fatal("central SPAN saw intra-leaf traffic")
	}
	// Cross-subnet traffic does transit it.
	c := top.Segment[1][0]
	a.Send(pkt(a.Addr(), c.Addr(), 64))
	ss.Run()
	if central.Count == 0 {
		t.Fatal("central SPAN blind to cross-subnet traffic")
	}
}

func TestAttachLeafMirrorValidation(t *testing.T) {
	_, top := placementTopology(t, 2, 2)
	if _, err := top.AttachLeafMirror(9, NewSink("x"), LinkConfig{}); err == nil {
		t.Fatal("out-of-range leaf accepted")
	}
	// A sink lives in exactly one domain: the one tapping leaf 0 cannot
	// also tap the distribution switch in domain 0.
	sink := NewSink("tap")
	if _, err := top.AttachLeafMirror(0, sink, LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	if _, err := top.AttachDistMirror(sink, LinkConfig{}); err == nil {
		t.Fatal("sink placed in two domains")
	}
}

func TestSegmentAddrStable(t *testing.T) {
	if LargeAddr(0, 0) != packet.IPv4(10, 1, 0, 0) || LargeAddr(2, 4) != packet.IPv4(10, 3, 0, 4) ||
		LargeAddr(1, 300) != packet.IPv4(10, 2, 1, 44) {
		t.Fatal("segment addressing scheme changed")
	}
}
