package netsim

import (
	"strings"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/simtime"
)

func newFabric2(t *testing.T) (*simtime.ShardedSim, *Fabric) {
	t.Helper()
	ss, err := simtime.NewSharded(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ss.Close)
	return ss, NewFabric(ss)
}

func TestFabricRejectsZeroDelayCrossLink(t *testing.T) {
	ss, f := newFabric2(t)
	a := NewHost(ss.Domain(0), "a", packet.IPv4(10, 1, 1, 1))
	b := NewHost(ss.Domain(1), "b", packet.IPv4(10, 2, 1, 1))
	if err := f.Place(0, a); err != nil {
		t.Fatal(err)
	}
	if err := f.Place(1, b); err != nil {
		t.Fatal(err)
	}
	_, err := f.Link(a, b, LinkConfig{Name: "zero"})
	if err == nil {
		t.Fatal("zero-delay cross-domain link accepted")
	}
	if !strings.Contains(err.Error(), "lookahead") || !strings.Contains(err.Error(), "propagation") {
		t.Fatalf("rejection %q does not explain the lookahead constraint", err)
	}
	// Same config on a same-domain pair is fine (defaults apply).
	c := NewHost(ss.Domain(0), "c", packet.IPv4(10, 1, 1, 2))
	if err := f.Place(0, c); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Link(a, c, LinkConfig{Name: "local"}); err != nil {
		t.Fatalf("same-domain zero-config link rejected: %v", err)
	}
}

func TestFabricPlacementErrors(t *testing.T) {
	ss, f := newFabric2(t)
	a := NewHost(ss.Domain(0), "a", 1)
	if err := f.Place(7, a); err == nil {
		t.Fatal("out-of-range domain accepted")
	}
	if err := f.Place(0, a); err != nil {
		t.Fatal(err)
	}
	if err := f.Place(0, a); err != nil {
		t.Fatalf("idempotent re-place rejected: %v", err)
	}
	if err := f.Place(1, a); err == nil {
		t.Fatal("re-placing endpoint in a different domain accepted")
	}
	b := NewHost(ss.Domain(1), "b", 2)
	if _, err := f.Link(a, b, LinkConfig{Propagation: time.Millisecond}); err == nil {
		t.Fatal("link to unplaced endpoint accepted")
	}
}

func TestCrossLinkImpairmentPanics(t *testing.T) {
	ss, f := newFabric2(t)
	a := NewHost(ss.Domain(0), "a", 1)
	b := NewHost(ss.Domain(1), "b", 2)
	if err := f.Place(0, a); err != nil {
		t.Fatal(err)
	}
	if err := f.Place(1, b); err != nil {
		t.Fatal(err)
	}
	l, err := f.Link(a, b, LinkConfig{Propagation: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("SetDown on a cross-domain link did not panic")
		}
		if !strings.Contains(r.(string), "cross") {
			t.Fatalf("panic %q does not diagnose the cross-domain restriction", r)
		}
	}()
	l.SetDown(true)
}

// TestCrossLinkTimingMatchesLocal pins the core equivalence: a packet
// over a cross-domain link arrives at exactly the virtual time it would
// over an identical link inside one domain — sharding moves computation,
// never timing.
func TestCrossLinkTimingMatchesLocal(t *testing.T) {
	cfg := LinkConfig{
		Name:         "pair",
		BandwidthBps: 100e6,
		Propagation:  137 * time.Microsecond,
		BufferBytes:  64 << 10,
	}
	mkPacket := func() *packet.Packet {
		return &packet.Packet{Dst: 2, Payload: []byte("timing probe payload")}
	}

	// Reference: both hosts on one Sim.
	var localTimes []simtime.Time
	{
		sim := simtime.New(7)
		a := NewHost(sim, "a", 1)
		b := NewHost(sim, "b", 2)
		l := NewLink(sim, a, b, cfg)
		a.SetLink(l)
		b.SetLink(l)
		b.OnPacket = func(*packet.Packet) { localTimes = append(localTimes, sim.Now()) }
		for i := 0; i < 5; i++ {
			d := simtime.Time(i) * simtime.Time(40*time.Microsecond)
			sim.MustSchedule(1000+d, func() { a.Send(mkPacket()) })
		}
		sim.Run()
	}

	// Same wire, endpoints in different domains.
	var crossTimes []simtime.Time
	{
		ss, f := newFabric2(t)
		a := NewHost(ss.Domain(0), "a", 1)
		b := NewHost(ss.Domain(1), "b", 2)
		if err := f.Place(0, a); err != nil {
			t.Fatal(err)
		}
		if err := f.Place(1, b); err != nil {
			t.Fatal(err)
		}
		l, err := f.Link(a, b, cfg)
		if err != nil {
			t.Fatal(err)
		}
		a.SetLink(l)
		b.SetLink(l)
		if err := f.Finalize(); err != nil {
			t.Fatal(err)
		}
		bsim := ss.Domain(1)
		b.OnPacket = func(*packet.Packet) { crossTimes = append(crossTimes, bsim.Now()) }
		for i := 0; i < 5; i++ {
			d := simtime.Time(i) * simtime.Time(40*time.Microsecond)
			ss.Domain(0).MustSchedule(1000+d, func() { a.Send(mkPacket()) })
		}
		ss.Run()
	}

	if len(localTimes) != 5 || len(crossTimes) != 5 {
		t.Fatalf("deliveries local=%d cross=%d, want 5 each", len(localTimes), len(crossTimes))
	}
	for i := range localTimes {
		if localTimes[i] != crossTimes[i] {
			t.Fatalf("packet %d: local arrival %v, cross arrival %v", i, localTimes[i], crossTimes[i])
		}
	}
}

// TestMinimumLookaheadTorture ping-pongs a packet across a cross-domain
// link whose 1µs propagation IS the lookahead, so every reply lands in
// the very next window — the tightest schedule conservative sync admits.
func TestMinimumLookaheadTorture(t *testing.T) {
	run := func(workers int) (rounds int, last simtime.Time) {
		ss, err := simtime.NewSharded(3, 2)
		if err != nil {
			t.Fatal(err)
		}
		defer ss.Close()
		f := NewFabric(ss)
		a := NewHost(ss.Domain(0), "a", 1)
		b := NewHost(ss.Domain(1), "b", 2)
		if err := f.Place(0, a); err != nil {
			t.Fatal(err)
		}
		if err := f.Place(1, b); err != nil {
			t.Fatal(err)
		}
		l, err := f.Link(a, b, LinkConfig{
			Name: "tight", BandwidthBps: 1e9, Propagation: time.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		a.SetLink(l)
		b.SetLink(l)
		if err := f.Finalize(); err != nil {
			t.Fatal(err)
		}
		if f.minProp != time.Microsecond {
			t.Fatalf("lookahead %v, want 1µs", f.minProp)
		}
		const wantRounds = 400
		bsim, asim := ss.Domain(1), ss.Domain(0)
		b.OnPacket = func(*packet.Packet) {
			rounds++
			last = bsim.Now()
			if rounds < wantRounds {
				b.Send(&packet.Packet{Dst: 1, Payload: []byte("pong")})
			}
		}
		a.OnPacket = func(*packet.Packet) {
			a.Send(&packet.Packet{Dst: 2, Payload: []byte("ping")})
		}
		ss.SetWorkers(workers)
		asim.MustSchedule(100, func() { a.Send(&packet.Packet{Dst: 2, Payload: []byte("ping")}) })
		ss.Run()
		if rounds != wantRounds {
			t.Fatalf("workers=%d: %d rounds, want %d", workers, rounds, wantRounds)
		}
		return rounds, last
	}
	_, serialLast := run(1)
	_, parallelLast := run(2)
	if serialLast != parallelLast {
		t.Fatalf("final round time differs: serial %v, 2 workers %v", serialLast, parallelLast)
	}
}

func TestBuildLargeTopologyValidatesDomains(t *testing.T) {
	ss, err := simtime.NewSharded(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if _, err := BuildLargeTopology(ss, LargeConfig{Segments: 4}); err == nil {
		t.Fatal("mismatched domain count accepted")
	}
	if _, err := BuildLargeTopology(ss, LargeConfig{Segments: 2, HostsPerSegment: 5000}); err == nil {
		t.Fatal("oversized segment accepted")
	}
}

func TestLargeTopologyEndToEnd(t *testing.T) {
	const segments = 3
	run := func(workers int) (extDeliveries, crossDeliveries int, last simtime.Time) {
		ss, err := simtime.NewSharded(11, segments+1)
		if err != nil {
			t.Fatal(err)
		}
		defer ss.Close()
		top, err := BuildLargeTopology(ss, LargeConfig{Segments: segments, HostsPerSegment: 4, ExternalHosts: 2})
		if err != nil {
			t.Fatal(err)
		}
		// Every host echoes nothing; count deliveries into segment 1.
		for _, h := range top.Segment[1] {
			h := h
			h.OnPacket = func(*packet.Packet) {
				extDeliveries++
				last = top.SegmentSim(1).Now()
			}
		}
		for _, h := range top.Segment[2] {
			h.OnPacket = func(*packet.Packet) { crossDeliveries++ }
		}
		ss.SetWorkers(workers)
		// External host sends into segment 1 (crosses ext->border->dist->leaf).
		ext := top.External[0]
		core := top.CoreSim()
		for i := 0; i < 6; i++ {
			dst := top.Segment[1][i%4].Addr()
			i := i
			core.MustSchedule(simtime.Time(1+i)*simtime.Time(time.Millisecond), func() {
				ext.Send(&packet.Packet{Dst: dst, Payload: []byte("hello from outside")})
			})
			_ = i
		}
		// Segment 0 host sends to segment 2 host (leaf->dist->leaf, two hops).
		src := top.Segment[0][0]
		s0 := top.SegmentSim(0)
		for i := 0; i < 4; i++ {
			dst := top.Segment[2][i%4].Addr()
			s0.MustSchedule(simtime.Time(2+i)*simtime.Time(time.Millisecond), func() {
				src.Send(&packet.Packet{Dst: dst, Payload: []byte("east-west")})
			})
		}
		ss.Run()
		return
	}
	e1, c1, t1 := run(1)
	if e1 != 6 || c1 != 4 {
		t.Fatalf("deliveries ext=%d cross=%d, want 6 and 4", e1, c1)
	}
	e2, c2, t2 := run(4)
	if e1 != e2 || c1 != c2 || t1 != t2 {
		t.Fatalf("parallel run diverged: ext %d vs %d, cross %d vs %d, last %v vs %v", e1, e2, c1, c2, t1, t2)
	}
}

func TestLargeTopologyMirrorTapsSegmentTraffic(t *testing.T) {
	ss, err := simtime.NewSharded(5, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	top, err := BuildLargeTopology(ss, LargeConfig{Segments: 2, HostsPerSegment: 3, ExternalHosts: 1})
	if err != nil {
		t.Fatal(err)
	}
	sink := NewSink("tap0")
	if _, err := top.AttachLeafMirror(0, sink, LinkConfig{}); err != nil {
		t.Fatal(err)
	}
	s0 := top.SegmentSim(0)
	src, dst := top.Segment[0][0], top.Segment[0][1]
	for i := 0; i < 5; i++ {
		s0.MustSchedule(simtime.Time(1+i)*simtime.Time(time.Millisecond), func() {
			src.Send(&packet.Packet{Dst: dst.Addr(), Payload: []byte("intra-segment")})
		})
	}
	ss.Run()
	if dst.Received != 5 {
		t.Fatalf("dst received %d, want 5", dst.Received)
	}
	if sink.Count != 5 {
		t.Fatalf("mirror sink saw %d packets, want 5", sink.Count)
	}
}
