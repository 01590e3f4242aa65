// Package netsim is the network substrate of the IDS evaluation testbed:
// hosts, duplex links with finite bandwidth and buffering, learning-free
// switches with SPAN (port-mirroring) support, a border router, and
// generic in-line devices. All behaviour is driven by the simtime kernel,
// so every latency, queue drop, and delivery is deterministic and
// observable — which is exactly what the paper's performance metrics
// (induced traffic latency, maximal throughput with zero loss, network
// lethal dose) need to be measured against.
package netsim

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// Endpoint is anything a link can deliver packets to.
type Endpoint interface {
	// Receive handles a packet arriving over the given link.
	Receive(p *packet.Packet, from *Link)
	// Name identifies the endpoint in diagnostics.
	Name() string
}

// LinkStats counts traffic over one direction of a link.
type LinkStats struct {
	Sent      uint64
	Delivered uint64
	Dropped   uint64
	Bytes     uint64
}

// transmission is one packet committed to a link direction's wire but
// not yet delivered.
type transmission struct {
	p       *packet.Packet
	size    int
	arrival simtime.Time
}

// linkDir is the transmission state for one direction of a duplex link.
// In-flight packets sit in a FIFO ring whose backing array is recycled
// in place, with a single armed delivery event for the head — so a
// sustained high-pps flow reuses one buffer and one closure instead of
// allocating a fresh closure per packet.
type linkDir struct {
	to        Endpoint
	busyUntil simtime.Time
	queued    int // bytes committed to the queue but not yet serialized
	stats     LinkStats

	// sim is the event domain that drives this direction: the SENDER's
	// domain, since Send and the serialization/arrival bookkeeping all
	// run in the sender's context. On an ordinary link both directions
	// share the link's sim; on a cross-domain link (Fabric.Link) each
	// direction is owned by the domain of the endpoint that transmits
	// into it, so all mutable state here stays single-threaded.
	sim *simtime.Sim
	// post, when non-nil, marks this a cross-domain direction: delivery
	// to the far endpoint is handed to the coordinator (ShardedSim.Post)
	// at Send time — the arrival is >= now + Propagation >= now +
	// lookahead, exactly the conservative contract — while the local
	// completion event keeps doing the sender-side queue bookkeeping.
	post func(at simtime.Time, fn func())

	inflight []transmission
	head     int
	armed    bool
	deliver  func() // reused delivery handler for the queue head

	// Telemetry instruments; nil (free no-ops) unless Instrument is called.
	cSent, cDelivered, cDropped, cBytes *obs.Counter
	gQueued                             *obs.Gauge
}

// pop removes and returns the queue head, compacting the ring when it
// empties so the backing array is reused.
func (dir *linkDir) pop() transmission {
	tx := dir.inflight[dir.head]
	dir.inflight[dir.head].p = nil // don't retain the packet via the pool
	dir.head++
	if dir.head == len(dir.inflight) {
		dir.inflight = dir.inflight[:0]
		dir.head = 0
	}
	return tx
}

// Link is a full-duplex point-to-point link with finite bandwidth, a
// propagation delay, and a bounded per-direction transmit buffer. Packets
// that would overflow the buffer are dropped — this is the mechanism
// behind every loss-based metric in the harness.
type Link struct {
	sim *simtime.Sim
	// BandwidthBps is the serialization rate in bits per second.
	BandwidthBps float64
	// Propagation is the one-way signal delay.
	Propagation time.Duration
	// BufferBytes bounds the per-direction transmit queue.
	BufferBytes int
	name        string
	a, b        *linkDir
	// cross marks a link whose endpoints live in different event domains
	// (see Fabric). Cross links reject fault injection: the impairment
	// state is shared by both directions, which would race across
	// domains, and the fault harness targets intra-segment gear anyway.
	cross bool

	// imp is fault-injection state; nil on the un-faulted path, so an
	// unimpaired link pays one pointer check per Send.
	imp *linkImpairment
}

// linkImpairment is the fault-injection state of a link: a hard
// partition, a bandwidth derating, or deterministic periodic loss. All
// three are applied at Send time so in-flight packets committed before
// injection still arrive — matching a real cable pull, which loses what
// had not yet been serialized.
type linkImpairment struct {
	down      bool
	bwScale   float64 // multiplies BandwidthBps when in (0,1)
	dropEvery int     // drop every Nth offered packet; 0 disables
	dropCount int
}

// SetDown partitions (true) or heals (false) the link. While down every
// offered packet is dropped and counted.
func (l *Link) SetDown(down bool) {
	l.ensureImpairment().down = down
}

// SetBandwidthScale derates the link's serialization rate by scale in
// (0,1); 0 or 1 restores nominal bandwidth.
func (l *Link) SetBandwidthScale(scale float64) {
	l.ensureImpairment().bwScale = scale
}

// SetLossEvery drops every nth offered packet deterministically (n >= 1;
// n == 1 drops everything). 0 disables injected loss.
func (l *Link) SetLossEvery(n int) {
	imp := l.ensureImpairment()
	imp.dropEvery = n
	imp.dropCount = 0
}

func (l *Link) ensureImpairment() *linkImpairment {
	if l.cross {
		panic(fmt.Sprintf("netsim: link %q crosses event domains; fault injection on cross-domain links is unsupported (impairment state would be shared across domains)", l.name))
	}
	if l.imp == nil {
		l.imp = &linkImpairment{}
	}
	return l.imp
}

// LinkConfig parameterizes NewLink.
type LinkConfig struct {
	Name         string
	BandwidthBps float64       // default 1 Gb/s
	Propagation  time.Duration // default 50µs
	BufferBytes  int           // default 256 KiB
}

// NewLink connects endpoints a and b. Either may be nil and attached later
// with AttachA/AttachB.
func NewLink(sim *simtime.Sim, a, b Endpoint, cfg LinkConfig) *Link {
	if cfg.BandwidthBps <= 0 {
		cfg.BandwidthBps = 1e9
	}
	if cfg.Propagation <= 0 {
		cfg.Propagation = 50 * time.Microsecond
	}
	if cfg.BufferBytes <= 0 {
		cfg.BufferBytes = 256 << 10
	}
	if cfg.Name == "" {
		cfg.Name = "link"
	}
	l := &Link{
		sim:          sim,
		BandwidthBps: cfg.BandwidthBps,
		Propagation:  cfg.Propagation,
		BufferBytes:  cfg.BufferBytes,
		name:         cfg.Name,
		a:            &linkDir{to: a, sim: sim},
		b:            &linkDir{to: b, sim: sim},
	}
	l.a.deliver = l.deliverFunc(l.a)
	l.b.deliver = l.deliverFunc(l.b)
	return l
}

// deliverFunc builds the one delivery handler a direction reuses for
// every packet: deliver the queue head, then re-arm for the next
// in-flight packet (arrivals are FIFO because busyUntil is monotone).
// On a cross-domain direction this event is sender-side bookkeeping
// only — the far endpoint's Receive was posted to the coordinator at
// Send time and executes in the destination domain.
func (l *Link) deliverFunc(dir *linkDir) func() {
	return func() {
		tx := dir.pop()
		dir.queued -= tx.size
		dir.stats.Delivered++
		dir.stats.Bytes += uint64(tx.size)
		dir.cDelivered.Inc()
		dir.cBytes.Add(uint64(tx.size))
		dir.gQueued.Set(int64(dir.queued))
		if dir.head < len(dir.inflight) {
			dir.sim.MustSchedule(dir.inflight[dir.head].arrival-dir.sim.Now(), dir.deliver)
		} else {
			dir.armed = false
		}
		if dir.post == nil && dir.to != nil {
			dir.to.Receive(tx.p, l)
		}
	}
}

// Name returns the link's diagnostic name.
func (l *Link) Name() string { return l.name }

// dirFrom resolves which direction a transmission from the given endpoint
// uses. Sending from A delivers to B and vice versa.
func (l *Link) dirFrom(from Endpoint) (*linkDir, error) {
	switch from {
	case l.a.to:
		return l.b, nil
	case l.b.to:
		return l.a, nil
	default:
		return nil, fmt.Errorf("netsim: endpoint %q not attached to link %q", from.Name(), l.name)
	}
}

// Send transmits p from the given attached endpoint toward the other side.
// It reports whether the packet was accepted (false means a buffer drop
// or an injected fault).
func (l *Link) Send(from Endpoint, p *packet.Packet) bool {
	dir, err := l.dirFrom(from)
	if err != nil {
		panic(err) // topology wiring bug, not a runtime condition
	}
	dir.stats.Sent++
	dir.cSent.Inc()
	bw := l.BandwidthBps
	if imp := l.imp; imp != nil {
		if imp.down {
			dir.stats.Dropped++
			dir.cDropped.Inc()
			return false
		}
		if imp.dropEvery > 0 {
			imp.dropCount++
			if imp.dropCount >= imp.dropEvery {
				imp.dropCount = 0
				dir.stats.Dropped++
				dir.cDropped.Inc()
				return false
			}
		}
		if imp.bwScale > 0 && imp.bwScale < 1 {
			bw *= imp.bwScale
		}
	}
	size := p.WireLen()
	if dir.queued+size > l.BufferBytes {
		dir.stats.Dropped++
		dir.cDropped.Inc()
		return false
	}
	dir.queued += size
	dir.gQueued.Set(int64(dir.queued))
	now := dir.sim.Now()
	start := now
	if dir.busyUntil > start {
		start = dir.busyUntil
	}
	serialize := time.Duration(float64(size*8) / bw * float64(time.Second))
	dir.busyUntil = start + serialize
	arrival := dir.busyUntil + l.Propagation
	dir.inflight = append(dir.inflight, transmission{p: p, size: size, arrival: arrival})
	if !dir.armed {
		dir.armed = true
		dir.sim.MustSchedule(arrival-now, dir.deliver)
	}
	if dir.post != nil {
		// Hand the far-side delivery to the coordinator now, while the
		// arrival (>= now + Propagation >= now + lookahead) still clears
		// the conservative window. The packet is not mutated after this
		// point on the sending side.
		to, pkt := dir.to, p
		dir.post(arrival, func() { to.Receive(pkt, l) })
	}
	return true
}

// Instrument registers per-direction traffic counters and queued-bytes
// gauges for this link under "netsim.link.<name>.<dir>". Directions are
// labeled by the endpoint they deliver to. Idempotent; a nil registry
// leaves the link uninstrumented (the free path).
func (l *Link) Instrument(reg *obs.Registry) {
	l.a.instrument(reg, l.name, "a")
	l.b.instrument(reg, l.name, "b")
}

func (dir *linkDir) instrument(reg *obs.Registry, link, side string) {
	if reg == nil {
		return
	}
	if dir.to != nil {
		side = "to_" + dir.to.Name()
	}
	base := "netsim.link." + link + "." + side + "."
	dir.cSent = reg.Counter(base + "sent")
	dir.cDelivered = reg.Counter(base + "delivered")
	dir.cDropped = reg.Counter(base + "dropped")
	dir.cBytes = reg.Counter(base + "bytes")
	dir.gQueued = reg.Gauge(base + "queued_bytes")
}

// StatsToward returns the counters for the direction delivering to e.
func (l *Link) StatsToward(e Endpoint) LinkStats {
	if l.a.to == e {
		return l.a.stats
	}
	if l.b.to == e {
		return l.b.stats
	}
	return LinkStats{}
}

// Host is a leaf node with an address and an application-level packet
// handler. A host attaches to exactly one link (its NIC).
type Host struct {
	sim  *simtime.Sim
	addr packet.Addr
	name string
	link *Link
	// OnPacket, if set, handles every packet delivered to the host.
	OnPacket func(p *packet.Packet)
	// Received counts delivered packets.
	Received uint64
	// SendFailed counts packets refused at the local link buffer.
	SendFailed uint64
}

// NewHost creates a host. Attach it to a link before sending.
func NewHost(sim *simtime.Sim, name string, addr packet.Addr) *Host {
	return &Host{sim: sim, addr: addr, name: name}
}

// Name implements Endpoint.
func (h *Host) Name() string { return h.name }

// Addr returns the host's address.
func (h *Host) Addr() packet.Addr { return h.addr }

// SetLink attaches the host's NIC.
func (h *Host) SetLink(l *Link) { h.link = l }

// Send transmits a packet from this host, stamping Sent time and source
// address if unset. It reports whether the local link accepted it. A host
// with no attached link refuses the packet (counted in SendFailed) —
// wiring mistakes are caught earlier by Topology.Validate, so this is a
// defensive bound rather than a panic site.
func (h *Host) Send(p *packet.Packet) bool {
	if h.link == nil {
		h.SendFailed++
		return false
	}
	if p.Src == 0 {
		p.Src = h.addr
	}
	p.Sent = h.sim.Now()
	if p.TTL == 0 {
		p.TTL = 64
	}
	ok := h.link.Send(h, p)
	if !ok {
		h.SendFailed++
	}
	return ok
}

// Receive implements Endpoint.
func (h *Host) Receive(p *packet.Packet, _ *Link) {
	h.Received++
	if h.OnPacket != nil {
		h.OnPacket(p)
	}
}

// Switch is an output-queued switch with a static forwarding table and
// optional SPAN mirroring. Every forwarded packet is also copied to the
// mirror link, if one is configured — the standard way a passive network
// IDS taps traffic (Section 2.2: "all traffic may be mirrored to it").
type Switch struct {
	sim        *simtime.Sim
	name       string
	table      map[packet.Addr]*Link
	uplink     *Link // default route for unknown destinations
	mirror     *Link
	latency    time.Duration
	Forwarded  uint64
	NoRoute    uint64
	MirrorSent uint64

	cForwarded, cNoRoute, cMirror *obs.Counter
}

// NewSwitch creates a switch with the given internal forwarding latency
// (zero means an idealized cut-through switch).
func NewSwitch(sim *simtime.Sim, name string, latency time.Duration) *Switch {
	return &Switch{
		sim:     sim,
		name:    name,
		table:   make(map[packet.Addr]*Link),
		latency: latency,
	}
}

// Name implements Endpoint.
func (s *Switch) Name() string { return s.name }

// Connect wires a host to the switch over a new link and registers the
// forwarding entry.
func (s *Switch) Connect(h *Host, cfg LinkConfig) *Link {
	if cfg.Name == "" {
		cfg.Name = s.name + "<->" + h.Name()
	}
	l := NewLink(s.sim, s, h, cfg)
	h.SetLink(l)
	s.table[h.Addr()] = l
	return l
}

// AddRoute registers an explicit forwarding entry for addr via l.
func (s *Switch) AddRoute(addr packet.Addr, l *Link) { s.table[addr] = l }

// SetUplink sets the default route used when no table entry matches.
func (s *Switch) SetUplink(l *Link) { s.uplink = l }

// SetMirror designates a link to receive a copy of all forwarded traffic.
func (s *Switch) SetMirror(l *Link) { s.mirror = l }

// Instrument registers forwarding counters under "netsim.switch.<name>".
func (s *Switch) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	base := "netsim.switch." + s.name + "."
	s.cForwarded = reg.Counter(base + "forwarded")
	s.cNoRoute = reg.Counter(base + "no_route")
	s.cMirror = reg.Counter(base + "mirror_sent")
}

// Receive implements Endpoint: forward by destination address, mirroring a
// copy if a SPAN port is configured.
func (s *Switch) Receive(p *packet.Packet, from *Link) {
	forward := func() {
		out, ok := s.table[p.Dst]
		if !ok {
			out = s.uplink
		}
		if out == nil || out == from {
			s.NoRoute++
			s.cNoRoute.Inc()
			return
		}
		s.Forwarded++
		s.cForwarded.Inc()
		out.Send(s, p)
		if s.mirror != nil && s.mirror != from {
			s.MirrorSent++
			s.cMirror.Inc()
			// The mirror port serializes its own copy and may drop under
			// load — exactly how a saturated SPAN port starves a passive
			// sensor.
			s.mirror.Send(s, p)
		}
	}
	if s.latency > 0 {
		s.sim.MustSchedule(s.latency, forward)
	} else {
		forward()
	}
}

// Router forwards between prefixes. The testbed uses it as the border
// router between the "Internet" side (traffic sources, attackers) and the
// protected LAN.
type Router struct {
	sim       *simtime.Sim
	name      string
	routes    []route
	latency   time.Duration
	Forwarded uint64
	TTLDrops  uint64
	NoRoute   uint64
}

type route struct {
	prefix packet.Addr
	mask   packet.Addr
	link   *Link
}

// NewRouter creates a router with the given per-packet forwarding latency.
func NewRouter(sim *simtime.Sim, name string, latency time.Duration) *Router {
	return &Router{sim: sim, name: name, latency: latency}
}

// Name implements Endpoint.
func (r *Router) Name() string { return r.name }

// AddRoute forwards destinations matching prefix/maskBits via l. Longer
// prefixes win.
func (r *Router) AddRoute(prefix packet.Addr, maskBits int, l *Link) {
	var mask packet.Addr
	if maskBits > 0 {
		mask = ^packet.Addr(0) << (32 - maskBits)
	}
	r.routes = append(r.routes, route{prefix: prefix & mask, mask: mask, link: l})
	// Keep longest-prefix first.
	for i := len(r.routes) - 1; i > 0; i-- {
		if r.routes[i].mask > r.routes[i-1].mask {
			r.routes[i], r.routes[i-1] = r.routes[i-1], r.routes[i]
		}
	}
}

// Receive implements Endpoint.
func (r *Router) Receive(p *packet.Packet, from *Link) {
	forward := func() {
		if p.TTL <= 1 {
			r.TTLDrops++
			return
		}
		q := *p // headers copied; payload shared read-only
		q.TTL--
		var out *Link
		for _, rt := range r.routes {
			if q.Dst&rt.mask == rt.prefix {
				out = rt.link
				break
			}
		}
		if out == nil || out == from {
			r.NoRoute++
			return
		}
		r.Forwarded++
		out.Send(r, &q)
	}
	if r.latency > 0 {
		r.sim.MustSchedule(r.latency, forward)
	} else {
		forward()
	}
}

// InlineDevice sits in the forwarding path between two links, imposing a
// per-packet processing delay and an optional processing-capacity bound.
// It is the substrate for in-line load balancers and in-line IDS sensors,
// whose induced latency and loss the paper's metrics measure directly.
type InlineDevice struct {
	sim  *simtime.Sim
	name string
	// PerPacket is the fixed processing cost per packet.
	PerPacket time.Duration
	// CapacityPps bounds sustainable packets/sec (0 = unbounded). Beyond
	// capacity the device queues up to QueueLimit packets, then drops.
	CapacityPps float64
	QueueLimit  int

	left, right *Link
	busyUntil   simtime.Time
	queueDepth  int
	// Process, if set, inspects every packet (the hook in-line sensors
	// use). Returning false drops the packet (traffic filtering).
	Process func(p *packet.Packet) bool

	// queue holds accepted-but-unprocessed packets in a recycled FIFO
	// ring with one armed completion event, mirroring linkDir.
	queue []inlineJob
	head  int
	armed bool
	run   func()

	Forwarded uint64
	Dropped   uint64
	Filtered  uint64

	cForwarded, cDropped, cFiltered *obs.Counter
	gQueueDepth                     *obs.Gauge
	hSojourn                        *obs.Histogram // sim-time enqueue-to-completion
}

// inlineJob is one packet waiting in an InlineDevice's processor queue.
type inlineJob struct {
	p    *packet.Packet
	from *Link
	enq  simtime.Time
	done simtime.Time
}

// NewInlineDevice creates an in-line element. Wire it with SetLinks.
func NewInlineDevice(sim *simtime.Sim, name string, perPacket time.Duration) *InlineDevice {
	d := &InlineDevice{sim: sim, name: name, PerPacket: perPacket, QueueLimit: 4096}
	d.run = d.process
	return d
}

// process completes the queue head's service time: run the inspection
// hook and forward out the other side, then re-arm for the next job.
func (d *InlineDevice) process() {
	job := d.queue[d.head]
	d.queue[d.head] = inlineJob{}
	d.head++
	if d.head == len(d.queue) {
		d.queue = d.queue[:0]
		d.head = 0
	}
	d.queueDepth--
	d.gQueueDepth.Set(int64(d.queueDepth))
	d.hSojourn.Observe(int64(d.sim.Now() - job.enq))
	if d.head < len(d.queue) {
		d.sim.MustSchedule(d.queue[d.head].done-d.sim.Now(), d.run)
	} else {
		d.armed = false
	}
	if d.Process != nil && !d.Process(job.p) {
		d.Filtered++
		d.cFiltered.Inc()
		return
	}
	out := d.right
	if job.from == d.right {
		out = d.left
	}
	if out == nil {
		d.Dropped++
		d.cDropped.Inc()
		return
	}
	d.Forwarded++
	d.cForwarded.Inc()
	out.Send(d, job.p)
}

// Name implements Endpoint.
func (d *InlineDevice) Name() string { return d.name }

// Instrument registers the device's counters, queue-depth gauge, and
// sim-time queue-sojourn histogram under "netsim.inline.<name>".
func (d *InlineDevice) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	base := "netsim.inline." + d.name + "."
	d.cForwarded = reg.Counter(base + "forwarded")
	d.cDropped = reg.Counter(base + "dropped")
	d.cFiltered = reg.Counter(base + "filtered")
	d.gQueueDepth = reg.Gauge(base + "queue_depth")
	d.hSojourn = reg.Histogram(base+"queue_wait_ns", obs.ClockSim)
}

// SetLinks attaches the two sides of the device.
func (d *InlineDevice) SetLinks(left, right *Link) {
	d.left = left
	d.right = right
}

// Receive implements Endpoint: apply processing delay/capacity, run the
// Process hook, and forward out the other side.
func (d *InlineDevice) Receive(p *packet.Packet, from *Link) {
	now := d.sim.Now()
	cost := d.PerPacket
	if d.CapacityPps > 0 {
		svc := time.Duration(float64(time.Second) / d.CapacityPps)
		if svc > cost {
			cost = svc
		}
	}
	start := now
	if d.busyUntil > start {
		start = d.busyUntil
	}
	// Queue-depth accounting: packets waiting for the processor.
	if d.queueDepth >= d.QueueLimit {
		d.Dropped++
		d.cDropped.Inc()
		return
	}
	d.queueDepth++
	d.gQueueDepth.Set(int64(d.queueDepth))
	d.busyUntil = start + cost
	d.queue = append(d.queue, inlineJob{p: p, from: from, enq: now, done: d.busyUntil})
	if !d.armed {
		d.armed = true
		d.sim.MustSchedule(d.busyUntil-now, d.run)
	}
}

// Sink is an endpoint that counts and optionally inspects packets without
// forwarding them. Passive (mirror-fed) sensors are Sinks.
type Sink struct {
	name string
	// OnPacket, if set, observes each delivered packet.
	OnPacket func(p *packet.Packet)
	Count    uint64
	Bytes    uint64
}

// NewSink creates a counting sink.
func NewSink(name string) *Sink { return &Sink{name: name} }

// Name implements Endpoint.
func (s *Sink) Name() string { return s.name }

// Receive implements Endpoint.
func (s *Sink) Receive(p *packet.Packet, _ *Link) {
	s.Count++
	s.Bytes += uint64(p.WireLen())
	if s.OnPacket != nil {
		s.OnPacket(p)
	}
}
