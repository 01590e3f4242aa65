package netsim

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/packet"
	"repro/internal/simtime"
)

func pkt(src, dst packet.Addr, size int) *packet.Packet {
	return &packet.Packet{
		Src: src, Dst: dst, SrcPort: 1000, DstPort: 80,
		Proto: packet.ProtoTCP, TTL: 64,
		Payload: make([]byte, size),
	}
}

func TestLinkDeliversWithSerializationAndPropagation(t *testing.T) {
	sim := simtime.New(1)
	a := NewHost(sim, "a", packet.IPv4(10, 0, 0, 1))
	b := NewHost(sim, "b", packet.IPv4(10, 0, 0, 2))
	// 1 Mb/s so serialization is visible: 1054 bytes -> 8.432 ms.
	l := NewLink(sim, a, b, LinkConfig{BandwidthBps: 1e6, Propagation: time.Millisecond})
	a.SetLink(l)

	var arrived simtime.Time = -1
	b.OnPacket = func(p *packet.Packet) { arrived = sim.Now() }
	a.Send(pkt(a.Addr(), b.Addr(), 1000))
	sim.Run()

	want := time.Duration(float64(1054*8)/1e6*float64(time.Second)) + time.Millisecond
	if arrived != want {
		t.Fatalf("arrival at %v, want %v", arrived, want)
	}
	if b.Received != 1 {
		t.Fatalf("b.Received = %d", b.Received)
	}
}

func TestLinkQueuesBackToBackPackets(t *testing.T) {
	sim := simtime.New(1)
	a := NewHost(sim, "a", packet.IPv4(10, 0, 0, 1))
	b := NewHost(sim, "b", packet.IPv4(10, 0, 0, 2))
	l := NewLink(sim, a, b, LinkConfig{BandwidthBps: 1e6, Propagation: time.Millisecond})
	a.SetLink(l)

	var arrivals []simtime.Time
	b.OnPacket = func(p *packet.Packet) { arrivals = append(arrivals, sim.Now()) }
	a.Send(pkt(a.Addr(), b.Addr(), 1000))
	a.Send(pkt(a.Addr(), b.Addr(), 1000))
	sim.Run()

	if len(arrivals) != 2 {
		t.Fatalf("delivered %d packets", len(arrivals))
	}
	ser := time.Duration(float64(1054*8) / 1e6 * float64(time.Second))
	if got := arrivals[1] - arrivals[0]; got != ser {
		t.Fatalf("spacing %v, want one serialization time %v", got, ser)
	}
}

func TestLinkDropsOnBufferOverflow(t *testing.T) {
	sim := simtime.New(1)
	a := NewHost(sim, "a", packet.IPv4(10, 0, 0, 1))
	b := NewHost(sim, "b", packet.IPv4(10, 0, 0, 2))
	l := NewLink(sim, a, b, LinkConfig{BandwidthBps: 1e6, BufferBytes: 2500})
	a.SetLink(l)

	accepted := 0
	for i := 0; i < 5; i++ {
		if a.Send(pkt(a.Addr(), b.Addr(), 1000)) {
			accepted++
		}
	}
	sim.Run()
	// Each packet is 1054 bytes on the wire; buffer holds two.
	if accepted != 2 {
		t.Fatalf("accepted %d, want 2", accepted)
	}
	st := l.StatsToward(b)
	if st.Dropped != 3 || st.Delivered != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if a.SendFailed != 3 {
		t.Fatalf("SendFailed = %d", a.SendFailed)
	}
}

func TestSwitchForwardsByAddress(t *testing.T) {
	sim := simtime.New(1)
	sw := NewSwitch(sim, "sw", 0)
	h1 := NewHost(sim, "h1", packet.IPv4(10, 0, 0, 1))
	h2 := NewHost(sim, "h2", packet.IPv4(10, 0, 0, 2))
	h3 := NewHost(sim, "h3", packet.IPv4(10, 0, 0, 3))
	sw.Connect(h1, LinkConfig{})
	sw.Connect(h2, LinkConfig{})
	sw.Connect(h3, LinkConfig{})

	h1.Send(pkt(h1.Addr(), h2.Addr(), 100))
	sim.Run()
	if h2.Received != 1 || h3.Received != 0 {
		t.Fatalf("h2=%d h3=%d", h2.Received, h3.Received)
	}
	if sw.Forwarded != 1 {
		t.Fatalf("Forwarded = %d", sw.Forwarded)
	}
}

func TestSwitchNoRouteCounted(t *testing.T) {
	sim := simtime.New(1)
	sw := NewSwitch(sim, "sw", 0)
	h1 := NewHost(sim, "h1", packet.IPv4(10, 0, 0, 1))
	sw.Connect(h1, LinkConfig{})
	h1.Send(pkt(h1.Addr(), packet.IPv4(99, 9, 9, 9), 10))
	sim.Run()
	if sw.NoRoute != 1 {
		t.Fatalf("NoRoute = %d", sw.NoRoute)
	}
}

func TestSwitchMirrorCopiesTraffic(t *testing.T) {
	sim := simtime.New(1)
	sw := NewSwitch(sim, "sw", 0)
	h1 := NewHost(sim, "h1", packet.IPv4(10, 0, 0, 1))
	h2 := NewHost(sim, "h2", packet.IPv4(10, 0, 0, 2))
	sw.Connect(h1, LinkConfig{})
	sw.Connect(h2, LinkConfig{})
	sink := NewSink("ids")
	mirror := NewLink(sim, sw, sink, LinkConfig{Name: "span"})
	sw.SetMirror(mirror)

	for i := 0; i < 10; i++ {
		h1.Send(pkt(h1.Addr(), h2.Addr(), 100))
	}
	sim.Run()
	if h2.Received != 10 {
		t.Fatalf("h2.Received = %d", h2.Received)
	}
	if sink.Count != 10 {
		t.Fatalf("mirror sink got %d packets, want 10", sink.Count)
	}
}

func TestSaturatedMirrorDropsWithoutAffectingProduction(t *testing.T) {
	sim := simtime.New(1)
	sw := NewSwitch(sim, "sw", 0)
	h1 := NewHost(sim, "h1", packet.IPv4(10, 0, 0, 1))
	h2 := NewHost(sim, "h2", packet.IPv4(10, 0, 0, 2))
	sw.Connect(h1, LinkConfig{BandwidthBps: 1e9})
	sw.Connect(h2, LinkConfig{BandwidthBps: 1e9})
	sink := NewSink("ids")
	// Mirror link far slower than production with a tiny buffer.
	mirror := NewLink(sim, sw, sink, LinkConfig{BandwidthBps: 1e5, BufferBytes: 2000})
	sw.SetMirror(mirror)

	for i := 0; i < 100; i++ {
		h1.Send(pkt(h1.Addr(), h2.Addr(), 1000))
	}
	sim.Run()
	if h2.Received != 100 {
		t.Fatalf("production traffic affected: h2.Received = %d", h2.Received)
	}
	if sink.Count >= 100 {
		t.Fatalf("saturated mirror delivered all %d packets", sink.Count)
	}
	if st := mirror.StatsToward(sink); st.Dropped == 0 {
		t.Fatal("expected mirror drops")
	}
}

func TestRouterForwardsAndDecrementsTTL(t *testing.T) {
	sim := simtime.New(1)
	top := BuildTopology(sim, TopologyConfig{ClusterHosts: 2, ExternalHosts: 1})
	src := top.External[0]
	dst := top.Cluster[0]

	var gotTTL uint8
	dst.OnPacket = func(p *packet.Packet) { gotTTL = p.TTL }
	src.Send(pkt(src.Addr(), dst.Addr(), 100))
	sim.Run()
	if dst.Received != 1 {
		t.Fatalf("dst.Received = %d", dst.Received)
	}
	if gotTTL != 63 {
		t.Fatalf("TTL = %d, want 63", gotTTL)
	}
}

func TestRouterDropsExpiredTTL(t *testing.T) {
	sim := simtime.New(1)
	top := BuildTopology(sim, TopologyConfig{ClusterHosts: 1, ExternalHosts: 1})
	p := pkt(top.External[0].Addr(), top.Cluster[0].Addr(), 10)
	p.TTL = 1
	top.External[0].Send(p)
	sim.Run()
	if top.Cluster[0].Received != 0 {
		t.Fatal("TTL=1 packet crossed the router")
	}
	if top.Border.TTLDrops != 1 {
		t.Fatalf("TTLDrops = %d", top.Border.TTLDrops)
	}
}

func TestTopologyEastWestTraffic(t *testing.T) {
	sim := simtime.New(1)
	top := BuildTopology(sim, TopologyConfig{ClusterHosts: 4, ExternalHosts: 1})
	a, b := top.Cluster[0], top.Cluster[3]
	a.Send(pkt(a.Addr(), b.Addr(), 100))
	sim.Run()
	if b.Received != 1 {
		t.Fatalf("b.Received = %d", b.Received)
	}
	if top.Border.Forwarded != 0 {
		t.Fatal("east-west traffic crossed the border router")
	}
}

func TestTopologyMirrorSeesNorthSouthAndEastWest(t *testing.T) {
	sim := simtime.New(1)
	top := BuildTopology(sim, TopologyConfig{ClusterHosts: 2, ExternalHosts: 1})
	sink := NewSink("ids")
	top.AttachMirror(sink, LinkConfig{BandwidthBps: 10e9})

	top.External[0].Send(pkt(top.External[0].Addr(), top.Cluster[0].Addr(), 100))
	top.Cluster[0].Send(pkt(top.Cluster[0].Addr(), top.Cluster[1].Addr(), 100))
	sim.Run()
	if sink.Count != 2 {
		t.Fatalf("mirror saw %d packets, want 2", sink.Count)
	}
}

func TestInlineDeviceForwardsAndAddsLatency(t *testing.T) {
	sim := simtime.New(1)
	top := BuildTopology(sim, TopologyConfig{ClusterHosts: 1, ExternalHosts: 1})

	// Baseline latency without device.
	var base simtime.Time
	top.Cluster[0].OnPacket = func(p *packet.Packet) { base = sim.Now() - p.Sent }
	top.External[0].Send(pkt(top.External[0].Addr(), top.Cluster[0].Addr(), 100))
	sim.Run()

	// Fresh topology with an in-line device.
	sim2 := simtime.New(1)
	top2 := BuildTopology(sim2, TopologyConfig{ClusterHosts: 1, ExternalHosts: 1})
	dev := NewInlineDevice(sim2, "inline-ids", 200*time.Microsecond)
	top2.InsertInline(dev, LinkConfig{})
	var withDev simtime.Time
	top2.Cluster[0].OnPacket = func(p *packet.Packet) { withDev = sim2.Now() - p.Sent }
	top2.External[0].Send(pkt(top2.External[0].Addr(), top2.Cluster[0].Addr(), 100))
	sim2.Run()

	if dev.Forwarded != 1 {
		t.Fatalf("device forwarded %d", dev.Forwarded)
	}
	if withDev <= base {
		t.Fatalf("in-line device did not add latency: base=%v with=%v", base, withDev)
	}
	if added := withDev - base; added < 200*time.Microsecond {
		t.Fatalf("added latency %v < processing cost", added)
	}
}

func TestInlineDeviceFilterDrops(t *testing.T) {
	sim := simtime.New(1)
	top := BuildTopology(sim, TopologyConfig{ClusterHosts: 1, ExternalHosts: 1})
	dev := NewInlineDevice(sim, "filter", time.Microsecond)
	dev.Process = func(p *packet.Packet) bool { return p.DstPort != 23 }
	top.InsertInline(dev, LinkConfig{})

	good := pkt(top.External[0].Addr(), top.Cluster[0].Addr(), 10)
	bad := pkt(top.External[0].Addr(), top.Cluster[0].Addr(), 10)
	bad.DstPort = 23
	top.External[0].Send(good)
	top.External[0].Send(bad)
	sim.Run()
	if top.Cluster[0].Received != 1 {
		t.Fatalf("received %d, want 1 (telnet filtered)", top.Cluster[0].Received)
	}
	if dev.Filtered != 1 {
		t.Fatalf("Filtered = %d", dev.Filtered)
	}
}

func TestInlineDeviceCapacityOverloadDrops(t *testing.T) {
	sim := simtime.New(1)
	top := BuildTopology(sim, TopologyConfig{ClusterHosts: 1, ExternalHosts: 1})
	dev := NewInlineDevice(sim, "slow", 0)
	dev.CapacityPps = 1000 // 1ms per packet
	dev.QueueLimit = 10
	top.InsertInline(dev, LinkConfig{})

	for i := 0; i < 200; i++ {
		top.External[0].Send(pkt(top.External[0].Addr(), top.Cluster[0].Addr(), 50))
	}
	sim.Run()
	if dev.Dropped == 0 {
		t.Fatal("overloaded device dropped nothing")
	}
	if top.Cluster[0].Received+dev.Dropped != 200 {
		t.Fatalf("conservation violated: delivered=%d dropped=%d", top.Cluster[0].Received, dev.Dropped)
	}
}

func TestClusterAddrUnique(t *testing.T) {
	seen := make(map[packet.Addr]bool)
	for i := 0; i < 1000; i++ {
		a := ClusterAddr(i)
		if seen[a] {
			t.Fatalf("duplicate cluster address %v at i=%d", a, i)
		}
		seen[a] = true
		if a&0xFFFF0000 != LanPrefix {
			t.Fatalf("ClusterAddr(%d) = %v outside LAN prefix", i, a)
		}
	}
}

func TestPlanIndexInvertsPlan(t *testing.T) {
	for i := 0; i < MaxPlanHosts; i++ {
		if got, ok := ClusterIndex(ClusterAddr(i)); !ok || got != i {
			t.Fatalf("ClusterIndex(ClusterAddr(%d)) = %d, %v", i, got, ok)
		}
		if got, ok := ExternalIndex(ExternalAddr(i)); !ok || got != i {
			t.Fatalf("ExternalIndex(ExternalAddr(%d)) = %d, %v", i, got, ok)
		}
		if _, ok := ClusterIndex(ExternalAddr(i)); ok {
			t.Fatalf("ClusterIndex accepted external address %v", ExternalAddr(i))
		}
	}
	if last := ClusterAddr(MaxPlanHosts - 1); last != packet.IPv4(10, 1, 255, 250) {
		t.Fatalf("last plan address %v, want 10.1.255.250", last)
	}
	for _, a := range []packet.Addr{
		packet.IPv4(10, 1, 0, 5),     // block 0: the large-topology plan, not this one
		packet.IPv4(10, 1, 1, 0),     // host octet 0
		packet.IPv4(10, 1, 1, 251),   // past the 250 hosts of a block
		packet.IPv4(10, 1, 1, 255),   // broadcast
		packet.IPv4(10, 2, 0, 1),     // another segment's /16
		packet.IPv4(203, 0, 1, 1),    // external
		packet.IPv4(0, 0, 0, 0),      // unset
		packet.IPv4(198, 51, 100, 7), // spoofed
	} {
		if i, ok := ClusterIndex(a); ok {
			t.Fatalf("ClusterIndex(%v) = %d, want rejected", a, i)
		}
	}
	for _, a := range []packet.Addr{
		packet.IPv4(203, 0, 0, 9), packet.IPv4(203, 0, 4, 0), packet.IPv4(203, 0, 4, 251),
		packet.IPv4(203, 1, 1, 1), packet.IPv4(10, 1, 1, 1),
	} {
		if i, ok := ExternalIndex(a); ok {
			t.Fatalf("ExternalIndex(%v) = %d, want rejected", a, i)
		}
	}
}

// Property: packet conservation on a single link — every accepted packet is
// delivered exactly once, every rejected one is counted as a drop.
func TestPropertyLinkConservation(t *testing.T) {
	f := func(sizes []uint16) bool {
		sim := simtime.New(7)
		a := NewHost(sim, "a", packet.IPv4(10, 0, 0, 1))
		b := NewHost(sim, "b", packet.IPv4(10, 0, 0, 2))
		l := NewLink(sim, a, b, LinkConfig{BandwidthBps: 1e7, BufferBytes: 8000})
		a.SetLink(l)
		sent := 0
		for _, s := range sizes {
			a.Send(pkt(a.Addr(), b.Addr(), int(s)%1400))
			sent++
		}
		sim.Run()
		st := l.StatsToward(b)
		return st.Sent == uint64(sent) &&
			st.Delivered+st.Dropped == uint64(sent) &&
			b.Received == st.Delivered
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTopologyNorthSouth(b *testing.B) {
	sim := simtime.New(1)
	top := BuildTopology(sim, TopologyConfig{ClusterHosts: 8, ExternalHosts: 2})
	src, dst := top.External[0], top.Cluster[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src.Send(pkt(src.Addr(), dst.Addr(), 512))
		sim.Run()
	}
}
