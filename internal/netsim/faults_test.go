package netsim

import (
	"strings"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/simtime"
)

// fpkt builds a small test packet.
func fpkt(n int) *packet.Packet {
	return &packet.Packet{Src: packet.IPv4(10, 0, 0, 1), Dst: packet.IPv4(10, 0, 0, 2), Payload: make([]byte, n)}
}

func TestLinkPartitionDropsAndHeals(t *testing.T) {
	sim := simtime.New(1)
	sink := NewSink("sink")
	src := NewHost(sim, "src", packet.IPv4(10, 0, 0, 1))
	l := NewLink(sim, src, sink, LinkConfig{})
	src.SetLink(l)

	if !src.Send(fpkt(100)) {
		t.Fatal("healthy link refused packet")
	}
	l.SetDown(true)
	if src.Send(fpkt(100)) {
		t.Fatal("partitioned link accepted packet")
	}
	if got := l.StatsToward(sink).Dropped; got != 1 {
		t.Fatalf("direction drop count = %d, want 1", got)
	}
	l.SetDown(false)
	if !src.Send(fpkt(100)) {
		t.Fatal("healed link refused packet")
	}
	sim.Run()
	if sink.Count != 2 {
		t.Fatalf("sink received %d packets, want 2", sink.Count)
	}
}

func TestLinkBandwidthScaleSlowsDelivery(t *testing.T) {
	// The same packet over the same link must arrive later once the
	// bandwidth is derated, and at the original time once cleared.
	arrivalAt := func(scale float64) simtime.Time {
		sim := simtime.New(1)
		sink := NewSink("sink")
		src := NewHost(sim, "src", packet.IPv4(10, 0, 0, 1))
		l := NewLink(sim, src, sink, LinkConfig{BandwidthBps: 1e6})
		src.SetLink(l)
		if scale > 0 {
			l.SetBandwidthScale(scale)
		}
		src.Send(fpkt(1000))
		var at simtime.Time
		sink.OnPacket = func(*packet.Packet) { at = sim.Now() }
		sim.Run()
		return at
	}
	full, degraded := arrivalAt(0), arrivalAt(0.25)
	if degraded <= full {
		t.Fatalf("derated link arrival %v not later than nominal %v", degraded, full)
	}
	// Serialization dominates here: quartering the bandwidth should
	// roughly quadruple the serialize time.
	if degraded < full*3 {
		t.Fatalf("derated arrival %v implausibly close to nominal %v", degraded, full)
	}
}

func TestLinkDeterministicLoss(t *testing.T) {
	sim := simtime.New(1)
	sink := NewSink("sink")
	src := NewHost(sim, "src", packet.IPv4(10, 0, 0, 1))
	l := NewLink(sim, src, sink, LinkConfig{})
	src.SetLink(l)

	l.SetLossEvery(3)
	accepted := 0
	for i := 0; i < 9; i++ {
		if src.Send(fpkt(64)) {
			accepted++
		}
	}
	if accepted != 6 {
		t.Fatalf("accepted %d of 9 with loss-every-3, want 6", accepted)
	}
	if got := l.StatsToward(sink).Dropped; got != 3 {
		t.Fatalf("%d packets dropped, want 3", got)
	}
	l.SetLossEvery(0)
	if !src.Send(fpkt(64)) {
		t.Fatal("link refused a packet with loss disabled")
	}
}

func TestHostSendWithoutLinkRefuses(t *testing.T) {
	sim := simtime.New(1)
	h := NewHost(sim, "orphan", packet.IPv4(10, 0, 0, 9))
	if h.link != nil {
		t.Fatal("fresh host claims a link")
	}
	if h.Send(fpkt(64)) {
		t.Fatal("host without a link accepted a packet")
	}
	if h.SendFailed != 1 {
		t.Fatalf("SendFailed = %d, want 1", h.SendFailed)
	}
}

func TestTopologyValidate(t *testing.T) {
	sim := simtime.New(1)
	top := BuildTopology(sim, TopologyConfig{ClusterHosts: 2, ExternalHosts: 2})
	if err := top.Validate(); err != nil {
		t.Fatalf("freshly built topology invalid: %v", err)
	}
	if top.TrunkLink() == nil || top.ExtTrunkLink() == nil {
		t.Fatal("trunk accessors returned nil on a valid topology")
	}

	// An orphan host added out-of-band must be caught by name.
	orphan := NewHost(sim, "node99", ClusterAddr(99))
	top.Cluster = append(top.Cluster, orphan)
	err := top.Validate()
	if err == nil {
		t.Fatal("Validate missed unattached cluster host")
	}
	if !strings.Contains(err.Error(), "node99") {
		t.Fatalf("Validate error %q does not name the orphan host", err)
	}
}

func TestLinkFlapTimeline(t *testing.T) {
	// A link flapping down/up on a schedule drops exactly the packets
	// offered while down — the netsim half of the link-flap fault.
	sim := simtime.New(1)
	sink := NewSink("sink")
	src := NewHost(sim, "src", packet.IPv4(10, 0, 0, 1))
	l := NewLink(sim, src, sink, LinkConfig{})
	src.SetLink(l)

	// Down during [10ms, 20ms); offered every 5ms from 0 to 30ms.
	sim.MustSchedule(10*time.Millisecond, func() { l.SetDown(true) })
	sim.MustSchedule(20*time.Millisecond, func() { l.SetDown(false) })
	for i := 0; i <= 6; i++ {
		sim.MustSchedule(time.Duration(i)*5*time.Millisecond, func() { src.Send(fpkt(64)) })
	}
	sim.Run()
	// Offers at 10ms and 15ms fall in the down window (SetDown at 10ms
	// is scheduled before the send at the same instant).
	if got := l.StatsToward(sink).Dropped; got != 2 {
		t.Fatalf("flap window dropped %d, want 2", got)
	}
	if sink.Count != 5 {
		t.Fatalf("sink received %d, want 5", sink.Count)
	}
}
