package eval

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/detect"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/par"
	"repro/internal/products"
	"repro/internal/simtime"
	"repro/internal/traffic"
)

// ShardedScaleConfig parameterizes RunShardedScale: one large segmented
// topology partitioned across conservative event domains, with a
// per-segment sensor pipeline tapping each leaf's SPAN port.
type ShardedScaleConfig struct {
	Seed int64
	// Segments is the leaf-switch count (default 8); the coordinator
	// gets Segments+1 domains.
	Segments int
	// HostsPerSegment (default 40).
	HostsPerSegment int
	// ExternalHosts (default 4).
	ExternalHosts int
	// Shards is the executor-goroutine count (default 1). It scales
	// wall-clock only: results are byte-identical for every value.
	Shards int
	// Duration is the scored detection phase; a Duration/5 clean
	// training phase precedes it (default 5s).
	Duration time.Duration
	// BackgroundPps is the offered background load per segment
	// (default 4000).
	BackgroundPps float64
	// AttackEvery spaces attack injections during the detection phase
	// (default Duration/10, i.e. 500ms at the default duration); attacks
	// rotate round-robin across segments.
	AttackEvery time.Duration
	// Obs, when non-nil, instruments the coordinator and per-segment
	// pipelines. Telemetry never perturbs results.
	Obs *obs.Registry
}

func (c *ShardedScaleConfig) applyDefaults() {
	if c.Segments <= 0 {
		c.Segments = 8
	}
	if c.HostsPerSegment <= 0 {
		c.HostsPerSegment = 40
	}
	if c.ExternalHosts <= 0 {
		c.ExternalHosts = 4
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	if c.Duration <= 0 {
		c.Duration = 5 * time.Second
	}
	if c.BackgroundPps <= 0 {
		c.BackgroundPps = 4000
	}
	if c.AttackEvery <= 0 {
		// One attack per tenth of the scored phase (500ms at the default
		// 5s), so shortened smoke runs still exercise detection.
		c.AttackEvery = c.Duration / 10
	}
}

// SegmentScaleStats is one segment's deterministic outcome.
type SegmentScaleStats struct {
	Tapped          uint64
	MirrorDrops     uint64
	SensorDrops     uint64
	AlertsSeen      uint64
	Incidents       int
	AttacksInjected int
	AttacksDetected int
}

// ShardedScaleResult is the outcome of one at-scale run. Every field
// except the Wall*/EventsPerSec pair is deterministic — identical for
// any shard count at the same seed — and only deterministic fields are
// rendered by report.ShardedScaleReport.
type ShardedScaleResult struct {
	Product         string
	Segments        int
	HostsPerSegment int
	Hosts           int
	Shards          int
	TrainFor        time.Duration
	Duration        time.Duration

	Events        uint64
	Windows       uint64
	CrossMessages uint64

	PacketsSent   uint64
	PacketsTapped uint64
	MirrorDrops   uint64
	SensorDrops   uint64
	AlertsSeen    uint64
	Incidents     int
	Notifications int

	AttacksInjected int
	AttacksDetected int
	DelayP50        time.Duration
	DelayP95        time.Duration
	DelayMax        time.Duration

	PerSegment []SegmentScaleStats

	// Wall-clock measurements; machine-dependent, excluded from the
	// deterministic report (stderr/bench material only).
	WallSeconds  float64
	EventsPerSec float64

	// Attribution is the per-domain wall-clock profile (busy/blocked
	// executor time per event domain), populated only when cfg.Obs was
	// set. Machine-dependent like WallSeconds: rendered by
	// report.ShardedScaleAttribution to stderr, never to stdout.
	Attribution []simtime.DomainAttribution
}

// segPipeline is one segment's domain-local sensing stack.
type segPipeline struct {
	engine   detect.Engine
	sensor   *ids.Sensor
	analyzer *ids.Analyzer
	monitor  *ids.Monitor
	sink     *netsim.Sink
	mirror   *netsim.Link

	sent       uint64
	injects    []simtime.Time // attack inject times, appended by domain 0
	detections []simtime.Time // alert times on the attack port, appended by this segment
}

// attackPayload carries two standard signature triggers, so any
// signature-class engine alerts on it; anomaly engines see an unknown
// port and an untrained payload shape.
var attackPayload = []byte("GET /cgi-bin/phf?Qalias=x%0a/bin/cat%20/etc/passwd HTTP/1.0\r\nHost: victim\r\n\r\n")

// RunShardedScale runs the large-topology experiment for one product:
// build the LargeTopology over Segments+1 domains, tap every leaf's SPAN
// into a domain-local engine+sensor+analyzer pipeline, drive per-segment
// background traffic plus external traffic and periodic attacks, and
// score detection. cfg.Shards picks how many cores execute the domains;
// the result's deterministic fields do not depend on it.
func RunShardedScale(ctx context.Context, spec products.Spec, cfg ShardedScaleConfig) (*ShardedScaleResult, error) {
	cfg.applyDefaults()
	ss, err := simtime.NewSharded(cfg.Seed, cfg.Segments+1)
	if err != nil {
		return nil, err
	}
	defer ss.Close()
	ss.SetWorkers(cfg.Shards)
	ss.Instrument(cfg.Obs)
	top, err := netsim.BuildLargeTopology(ss, netsim.LargeConfig{
		Segments:        cfg.Segments,
		HostsPerSegment: cfg.HostsPerSegment,
		ExternalHosts:   cfg.ExternalHosts,
	})
	if err != nil {
		return nil, err
	}

	trainFor := cfg.Duration / 5
	horizon := simtime.Time(trainFor + cfg.Duration)
	trainUntil := simtime.Time(trainFor)

	// IDS architecture knobs from the product spec, with the assembly
	// defaults ids.New applies.
	idsCfg := spec.IDS
	idsCfg.ApplyDefaults()

	segs := make([]*segPipeline, cfg.Segments)
	for s := 0; s < cfg.Segments; s++ {
		s := s
		segSim := top.SegmentSim(s)
		sp := &segPipeline{engine: idsCfg.Engine()}
		sp.monitor = ids.NewMonitor(segSim, idsCfg.NotifyThreshold)
		sp.analyzer = ids.NewAnalyzer(segSim, s, idsCfg.CorrelationWindow, idsCfg.StorageBytesPerAlert, sp.monitor)
		sp.sensor = ids.NewSensor(segSim, s, sp.engine, idsCfg.SensorQueue, idsCfg.FailureMode, 0, 0)
		sp.sensor.SetDeliver(func(alerts []detect.Alert) {
			for _, a := range alerts {
				if a.Flow.DstPort == attackPort {
					sp.detections = append(sp.detections, a.At)
				}
			}
			sp.analyzer.Submit(alerts)
		})
		sp.sink = netsim.NewSink(fmt.Sprintf("tap%03d", s))
		sp.sink.OnPacket = func(p *packet.Packet) {
			if segSim.Now() < trainUntil {
				sp.engine.Train(p, segSim.Now())
				return
			}
			sp.sensor.Offer(p)
		}
		mirror, err := top.AttachLeafMirror(s, sp.sink, netsim.LinkConfig{BandwidthBps: 10e9})
		if err != nil {
			return nil, err
		}
		sp.mirror = mirror
		segs[s] = sp
	}

	// Cancellation: every domain consults ctx about each interrupt
	// stride. The check runs on executor goroutines, so it must be (and
	// is) goroutine-safe: ctx.Err plus the campaign heartbeat.
	if ctx != nil && ctx != context.Background() {
		beat := par.HeartbeatFrom(ctx)
		ss.SetInterrupt(func() error {
			if beat != nil {
				beat()
			}
			return ctx.Err()
		})
	}

	// Per-segment background driver: a self-rescheduling source on the
	// segment's own random stream and a private Seq space, so every
	// segment's workload is independent of all others.
	for s := 0; s < cfg.Segments; s++ {
		startSegmentDriver(top, segs[s], s, cfg, horizon)
	}
	startExternalDriver(top, cfg, horizon)
	startAttackDriver(top, segs, cfg, trainUntil, horizon)

	start := time.Now()
	ss.RunUntil(horizon)
	ss.Run() // drain in-flight deliveries and scan completions
	wall := time.Since(start)
	if err := ss.Interrupted(); err != nil {
		return nil, fmt.Errorf("eval: sharded scale run interrupted: %w", err)
	}

	res := &ShardedScaleResult{
		Product:         spec.Name,
		Segments:        cfg.Segments,
		HostsPerSegment: cfg.HostsPerSegment,
		Hosts:           top.Hosts,
		Shards:          cfg.Shards,
		TrainFor:        trainFor,
		Duration:        cfg.Duration,
		Events:          ss.Processed(),
		Windows:         ss.Windows(),
		CrossMessages:   ss.CrossPosted(),
		WallSeconds:     wall.Seconds(),
	}
	if res.WallSeconds > 0 {
		res.EventsPerSec = float64(res.Events) / res.WallSeconds
	}
	res.Attribution = ss.Attribution()
	var delays []time.Duration
	for _, sp := range segs {
		st := SegmentScaleStats{
			Tapped:      sp.sink.Count,
			MirrorDrops: sp.mirror.StatsToward(sp.sink).Dropped,
			SensorDrops: sp.sensor.Dropped,
			AlertsSeen:  sp.analyzer.AlertsSeen,
			Incidents:   len(sp.monitor.Incidents),
		}
		st.AttacksInjected = len(sp.injects)
		// An injection is detected if any attack-port alert lands within
		// its AttackEvery window; the first such alert sets the delay.
		// Injections are AttackEvery apart and real delays are far
		// smaller, so the windows cannot overlap.
		di := 0
		for _, inj := range sp.injects {
			limit := inj + simtime.Time(cfg.AttackEvery)
			for di < len(sp.detections) && sp.detections[di] < inj {
				di++
			}
			if di < len(sp.detections) && sp.detections[di] < limit {
				st.AttacksDetected++
				delays = append(delays, time.Duration(sp.detections[di]-inj))
			}
		}
		res.PacketsSent += sp.sent
		res.PacketsTapped += st.Tapped
		res.MirrorDrops += st.MirrorDrops
		res.SensorDrops += st.SensorDrops
		res.AlertsSeen += st.AlertsSeen
		res.Incidents += st.Incidents
		res.Notifications += len(sp.monitor.Notifications)
		res.AttacksInjected += st.AttacksInjected
		res.AttacksDetected += st.AttacksDetected
		res.PerSegment = append(res.PerSegment, st)
	}
	if len(delays) > 0 {
		sort.Slice(delays, func(i, j int) bool { return delays[i] < delays[j] })
		res.DelayP50 = delays[len(delays)*50/100]
		p95 := len(delays) * 95 / 100
		if p95 >= len(delays) {
			p95 = len(delays) - 1
		}
		res.DelayP95 = delays[p95]
		res.DelayMax = delays[len(delays)-1]
	}
	return res, nil
}

// attackPort is the destination port attack injections use; detection
// matching keys on it.
const attackPort uint16 = 31337

// crossRatio is the fraction of background flows that leave their
// segment over the distribution switch.
const crossRatio = 0.15

// startSegmentDriver installs segment s's self-rescheduling background
// source. All of its state — rng stream, sequence counter, host picks —
// lives in the segment's domain.
func startSegmentDriver(top *netsim.LargeTopology, sp *segPipeline, s int, cfg ShardedScaleConfig, horizon simtime.Time) {
	segSim := top.SegmentSim(s)
	rng := segSim.Stream(fmt.Sprintf("large.seg%03d", s))
	hosts := top.Segment[s]
	gap := func() simtime.Time {
		return simtime.Time(float64(time.Second) / cfg.BackgroundPps * (0.5 + rng.Float64()))
	}
	var emit func()
	emit = func() {
		now := segSim.Now()
		if now >= horizon {
			return
		}
		si := rng.Intn(len(hosts))
		src := hosts[si]
		var dst packet.Addr
		if cfg.Segments > 1 && rng.Float64() < crossRatio {
			os := rng.Intn(cfg.Segments - 1)
			if os >= s {
				os++
			}
			dst = netsim.LargeAddr(os, rng.Intn(cfg.HostsPerSegment))
		} else {
			di := rng.Intn(len(hosts))
			if di == si {
				di = (di + 1) % len(hosts)
			}
			dst = hosts[di].Addr()
		}
		var payload []byte
		dstPort := uint16(80)
		proto := packet.ProtoTCP
		switch rng.Intn(3) {
		case 0:
			payload = traffic.HTTPRequest(rng)
		case 1:
			payload = traffic.DNSQuery(rng)
			dstPort = 53
			proto = packet.ProtoUDP
		default:
			payload = traffic.BulkChunk(rng, 600+rng.Intn(800))
			dstPort = 443
		}
		sp.sent++
		src.Send(&packet.Packet{
			Seq:     uint64(s+1)<<48 | sp.sent,
			Src:     src.Addr(),
			Dst:     dst,
			SrcPort: uint16(20000 + rng.Intn(20000)),
			DstPort: dstPort,
			Proto:   proto,
			Payload: payload,
		})
		segSim.MustSchedule(gap(), emit)
	}
	segSim.MustSchedule(simtime.Time(50*time.Microsecond)*simtime.Time(s+1), emit)
}

// startExternalDriver sends modest north-south traffic from the external
// hosts into rotating segments (domain 0's own stream and Seq space).
func startExternalDriver(top *netsim.LargeTopology, cfg ShardedScaleConfig, horizon simtime.Time) {
	core := top.CoreSim()
	rng := core.Stream("large.ext")
	pps := cfg.BackgroundPps * 0.2
	var n uint64
	var emit func()
	emit = func() {
		now := core.Now()
		if now >= horizon {
			return
		}
		src := top.External[rng.Intn(len(top.External))]
		dst := netsim.LargeAddr(rng.Intn(cfg.Segments), rng.Intn(cfg.HostsPerSegment))
		n++
		src.Send(&packet.Packet{
			Seq:     n, // high 16 bits zero: disjoint from segment spaces
			Src:     src.Addr(),
			Dst:     dst,
			SrcPort: uint16(30000 + rng.Intn(10000)),
			DstPort: 80,
			Proto:   packet.ProtoTCP,
			Payload: traffic.HTTPRequest(rng),
		})
		core.MustSchedule(simtime.Time(float64(time.Second)/pps*(0.5+rng.Float64())), emit)
	}
	core.MustSchedule(simtime.Time(120*time.Microsecond), emit)
}

// startAttackDriver injects one attack every AttackEvery during the
// detection phase, rotating round-robin across segments, from the first
// external host. Inject times append to the target segment's record —
// written only by domain 0, read only after the run completes.
func startAttackDriver(top *netsim.LargeTopology, segs []*segPipeline, cfg ShardedScaleConfig, trainUntil, horizon simtime.Time) {
	core := top.CoreSim()
	rng := core.Stream("large.attack")
	attacker := top.External[0]
	var n int
	var fire func()
	fire = func() {
		now := core.Now()
		if now >= horizon {
			return
		}
		seg := n % cfg.Segments
		victim := netsim.LargeAddr(seg, rng.Intn(cfg.HostsPerSegment))
		segs[seg].injects = append(segs[seg].injects, now)
		attacker.Send(&packet.Packet{
			Seq:     uint64(255)<<48 | uint64(n),
			Src:     attacker.Addr(),
			Dst:     victim,
			SrcPort: uint16(40000 + rng.Intn(10000)),
			DstPort: attackPort,
			Proto:   packet.ProtoTCP,
			Payload: attackPayload,
			Truth: packet.Label{
				Malicious: true,
				AttackID:  fmt.Sprintf("phf-%04d", n),
				Technique: "phf",
			},
		})
		n++
		core.MustSchedule(simtime.Time(cfg.AttackEvery), fire)
	}
	core.MustSchedule(trainUntil+simtime.Time(cfg.AttackEvery)/2, fire)
}
