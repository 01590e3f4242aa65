// Package eval is the measurement harness: it runs the experiments that
// observe every performance and measurable architectural metric the paper
// defines, maps raw observations onto the discrete 0–4 scorecard scale,
// and assembles complete scorecards for the product field. Each
// experiment corresponds to a metric of Table 2/3 or a figure of the
// paper; see DESIGN.md's experiment index.
package eval

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/par"

	"repro/internal/attack"
	"repro/internal/detect"
	"repro/internal/hostmon"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/products"
	"repro/internal/simtime"
	"repro/internal/traffic"
)

// TapMode is how the IDS observes traffic.
type TapMode int

// Tap modes.
const (
	// TapMirror feeds the IDS a SPAN copy (passive; production traffic
	// unaffected).
	TapMirror TapMode = iota
	// TapInline splices the IDS into the router<->LAN trunk so its
	// processing delays — and its response filtering — affect traffic.
	TapInline
)

// String names the mode.
func (m TapMode) String() string {
	if m == TapInline {
		return "inline"
	}
	return "mirror"
}

// TestbedConfig parameterizes a full testbed run.
type TestbedConfig struct {
	Seed          int64
	ClusterHosts  int // default 6
	ExternalHosts int // default 3
	Profile       traffic.Profile
	Tap           TapMode
	// TrainFor is the clean-traffic baseline window.
	TrainFor time.Duration
	// BackgroundPps is the offered background load.
	BackgroundPps float64
	// Obs, when non-nil, wires telemetry through every component of the
	// testbed (topology links/switches, the IDS pipeline). Telemetry
	// observes and never perturbs: results are bit-identical with Obs
	// set or nil (the determinism guard test pins this).
	Obs *obs.Registry
}

func (c *TestbedConfig) applyDefaults() {
	if c.ClusterHosts == 0 {
		c.ClusterHosts = 6
	}
	if c.ExternalHosts == 0 {
		c.ExternalHosts = 3
	}
	if c.Profile.Name == "" {
		c.Profile = traffic.EcommerceEdge()
	}
	if c.TrainFor == 0 {
		c.TrainFor = 20 * time.Second
	}
	if c.BackgroundPps == 0 {
		c.BackgroundPps = 600
	}
}

// Testbed is one assembled run environment: topology, generators, the
// campaign context, and one or more IDS deployments, all observing the
// one network through the one tap.
type Testbed struct {
	Sim *simtime.Sim
	Top *netsim.Topology
	// IDS and Spec are the first deployment's IDS and product: the only
	// ones on a testbed NewTestbed builds.
	IDS  *ids.IDS
	Gen  *traffic.Generator
	Spec products.Spec
	Cfg  TestbedConfig

	hostsByAddr map[packet.Addr]*netsim.Host
	seq         *packet.SeqCounter
	deps        []*deployment
	// learner is the first deployment whose IDS learns, or nil; every
	// later learning deployment reads its profile.
	learner  *ids.IDS
	training bool

	// TapDropped counts mirror-link losses (packets the IDS never saw).
	mirrorLink *netsim.Link
	mirrorSink *netsim.Sink
}

// deploy asks for one deployment on a testbed: the product and the
// telemetry view its IDS writes under.
type deploy struct {
	spec products.Spec
	obs  *obs.Registry
}

// deployment is one IDS on a testbed and its product. A HostAgents
// product also gets a hostless hostmon agent per cluster host,
// reporting into the IDS's first analyzer: what a host costs is
// Operational Performance Impact, which MeasureOperationalImpact
// measures on a real-time host of its own.
type deployment struct {
	spec products.Spec
	ids  *ids.IDS
}

// NewTestbed assembles the environment for one product.
func NewTestbed(spec products.Spec, cfg TestbedConfig) (*Testbed, error) {
	return newTestbed(cfg, deploy{spec: spec, obs: cfg.Obs})
}

// newTestbed assembles the environment with the given deployments on
// one network. The network, generator and campaign context are built
// once, instrumented under cfg.Obs; each deployment sees every tapped
// packet and every cluster host's traffic, in deployment order. More
// than one deployment needs the mirror tap: an in-line device acts on
// one IDS's verdict.
func newTestbed(cfg TestbedConfig, deps ...deploy) (*Testbed, error) {
	cfg.applyDefaults()
	if len(deps) > 1 && cfg.Tap != TapMirror {
		return nil, fmt.Errorf("eval: %d deployments on an %v tap, which acts on one verdict", len(deps), cfg.Tap)
	}
	sim := simtime.New(cfg.Seed)
	top := netsim.BuildTopology(sim, netsim.TopologyConfig{
		ClusterHosts:  cfg.ClusterHosts,
		ExternalHosts: cfg.ExternalHosts,
	})
	if err := top.Validate(); err != nil {
		return nil, fmt.Errorf("eval: testbed topology: %w", err)
	}
	top.Instrument(cfg.Obs)
	spec := deps[0].spec
	tb := &Testbed{
		Sim: sim, Top: top, Spec: spec, Cfg: cfg,
		hostsByAddr: make(map[packet.Addr]*netsim.Host),
		seq:         &packet.SeqCounter{},
	}
	// Deployments share one scan memo, since their sensors prescan the
	// same payloads; a lone deployment gets none, which it would never
	// hit.
	var scans *detect.ScanMemo
	if len(deps) > 1 {
		scans = detect.NewScanMemo(sharedScanEntries)
	}
	for _, dp := range deps {
		inst, err := dp.spec.Instantiate(sim)
		if err != nil {
			return nil, err
		}
		inst.Instrument(dp.obs)
		if inst.Learns() {
			if tb.learner == nil {
				tb.learner = inst
			} else {
				inst.ShareProfile(tb.learner)
			}
		}
		if scans != nil {
			inst.ShareScans(scans)
		}
		tb.deps = append(tb.deps, &deployment{spec: dp.spec, ids: inst})
	}
	tb.IDS = tb.deps[0].ids
	for _, h := range append(append([]*netsim.Host{}, top.Cluster...), top.External...) {
		tb.hostsByAddr[h.Addr()] = h
	}

	// Attach the tap.
	switch cfg.Tap {
	case TapInline:
		dev := netsim.NewInlineDevice(sim, spec.Name+"-inline", tb.meanInspectCost())
		dev.Process = func(p *packet.Packet) bool { return tb.offer(p) }
		top.InsertInline(dev, netsim.LinkConfig{})
	default:
		sink := netsim.NewSink(spec.Name + "-tap")
		sink.OnPacket = func(p *packet.Packet) { tb.offer(p) }
		tb.mirrorSink = sink
		tb.mirrorLink = top.AttachMirror(sink, netsim.LinkConfig{BandwidthBps: 10e9})
	}

	tb.deployHostAgents()

	// Background generator injects through the real hosts.
	gen, err := traffic.NewGenerator(sim, cfg.Profile, tb.Endpoints(), tb.seq, tb.inject)
	if err != nil {
		return nil, err
	}
	tb.Gen = gen
	return tb, nil
}

// deployHostAgents gives every HostAgents deployment a hostless
// hostmon agent on each cluster host, and hooks each cluster host once
// to feed its events to every deployment's agent there, in deployment
// order.
func (tb *Testbed) deployHostAgents() {
	for i, h := range tb.Top.Cluster {
		var agents []*hostmon.Agent
		for _, d := range tb.deps {
			if !d.spec.HostAgents {
				continue
			}
			agent := hostmon.NewAgent(tb.Sim, nil, d.spec.HostAgentLevel)
			agent.Deliver = d.ids.Analyzers()[0].Submit
			agents = append(agents, agent)
		}
		if len(agents) == 0 {
			continue
		}
		idx := i
		prev := h.OnPacket
		h.OnPacket = func(p *packet.Packet) {
			if prev != nil {
				prev(p)
			}
			if tb.training {
				return
			}
			for _, ev := range hostmon.EventsFromPacket(p, tb.Sim.Now()) {
				ev.HostIdx = idx
				for _, agent := range agents {
					agent.Observe(ev)
				}
			}
		}
	}
}

// Bind ties the testbed's simulation to ctx: the kernel consults
// ctx.Err about every interrupt stride, so cancelling ctx (SIGINT, a
// campaign watchdog, a -timeout) halts the run within a bounded number
// of events instead of at the end of the experiment. When ctx carries
// a heartbeat (par.WithHeartbeat), each consult also beats it, letting
// a stall watchdog distinguish slow-but-progressing simulations from
// wedged ones. Binding context.Background (or nil) uninstalls.
//
// Binding never perturbs results: the check touches no simulation
// state, so an uncancelled bound run is bit-identical to an unbound
// one (the telemetry determinism guard covers the shared harness).
func (tb *Testbed) Bind(ctx context.Context) {
	bindSim(ctx, tb.Sim)
}

// bindSim installs the ctx/heartbeat interrupt check on any sim.
func bindSim(ctx context.Context, sim *simtime.Sim) {
	if ctx == nil || ctx == context.Background() {
		sim.SetInterrupt(nil)
		return
	}
	beat := par.HeartbeatFrom(ctx)
	sim.SetInterrupt(func() error {
		if beat != nil {
			beat()
		}
		return ctx.Err()
	})
}

// Interrupted surfaces a cancellation that halted the bound simulation
// as an eval error. A non-nil return means the run's partial state is
// not scoreable and the experiment must be reported as interrupted.
func (tb *Testbed) Interrupted() error {
	if err := tb.Sim.Interrupted(); err != nil {
		if len(tb.deps) > 1 {
			return fmt.Errorf("eval: run of %d deployments interrupted: %w", len(tb.deps), err)
		}
		return fmt.Errorf("eval: %s run interrupted: %w", tb.Spec.Name, err)
	}
	return nil
}

// isCancel reports whether err is (or wraps) a context cancellation or
// deadline expiry — the class of failures for which entry points hand
// back partial results instead of discarding completed work.
func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// meanInspectCost estimates the per-packet in-line processing cost from
// the product's engine on a typical packet.
func (tb *Testbed) meanInspectCost() time.Duration {
	e := tb.Spec.IDS.Engine()
	typical := &packet.Packet{Payload: make([]byte, 512)}
	return e.CostPerPacket(typical)
}

// OfferHook, when set, observes every tapped packet before the IDS does
// (testing and diagnostics only).
var OfferHook func(p *packet.Packet, training bool)

// sharedScanEntries is the scan memo's capacity on a testbed of several
// deployments. The twins of a sensor prescan its pending batch at one
// instant, so an entry is reused within a batch or two of its store: 16
// entries already reach the 1 − 1/deployments hit rate for every
// product, and on a field's testbeds, where the key's matcher keeps the
// products apart, 64 save about 1% of the scans while keeping four
// times the payloads alive.
const sharedScanEntries = 16

// offer trains the testbed's one learned profile on a tapped packet,
// or hands the packet to every deployment, in order, and returns their
// joint pass verdict (the one IDS's, in-line).
func (tb *Testbed) offer(p *packet.Packet) bool {
	if OfferHook != nil {
		OfferHook(p, tb.training)
	}
	if tb.training {
		if tb.learner != nil {
			tb.learner.Train(p)
		}
		return true
	}
	pass := true
	for _, d := range tb.deps {
		pass = d.ids.Ingest(p) && pass
	}
	return pass
}

// inject sends a generated packet from its source host.
func (tb *Testbed) inject(p *packet.Packet) {
	h, ok := tb.hostsByAddr[p.Src]
	if !ok {
		// Spoofed source outside the testbed: originate at the first
		// external host (the attacker's uplink).
		h = tb.Top.External[0]
	}
	h.Send(p)
}

// Endpoints lists the testbed's addresses for generators and campaigns.
func (tb *Testbed) Endpoints() traffic.Endpoints {
	eps := traffic.Endpoints{}
	for _, h := range tb.Top.Cluster {
		eps.Cluster = append(eps.Cluster, h.Addr())
	}
	for _, h := range tb.Top.External {
		eps.External = append(eps.External, h.Addr())
	}
	return eps
}

// AttackContext builds the campaign context sharing the testbed's
// sequence counter and injection path.
func (tb *Testbed) AttackContext() *attack.Context {
	return &attack.Context{
		Sim:  tb.Sim,
		Rng:  tb.Sim.Stream("attack"),
		Seq:  tb.seq,
		Emit: tb.inject,
		Eps:  tb.Endpoints(),
		Gen:  tb.Gen,
	}
}

// Train runs the clean-baseline phase: background traffic only, every
// tapped packet feeding engine training instead of detection.
func (tb *Testbed) Train() error {
	tb.training = true
	rate := tb.Gen.SessionRateForPps(tb.Cfg.BackgroundPps)
	if err := tb.Gen.Start(rate); err != nil {
		return err
	}
	tb.Sim.RunUntil(tb.Cfg.TrainFor)
	tb.training = false
	return tb.Interrupted()
}

// Drain stops the background generator and runs the simulation until
// the event queue empties.
func (tb *Testbed) Drain() {
	tb.Gen.Stop()
	tb.Sim.Run()
}

// MirrorLink returns the SPAN link feeding the IDS tap, or nil in inline
// mode — the fault harness's "link:span" target.
func (tb *Testbed) MirrorLink() *netsim.Link { return tb.mirrorLink }

// MirrorDrops returns packets lost on the SPAN link (mirror mode only).
func (tb *Testbed) MirrorDrops() uint64 {
	if tb.mirrorLink == nil || tb.mirrorSink == nil {
		return 0
	}
	return tb.mirrorLink.StatsToward(tb.mirrorSink).Dropped
}

// validateTapMode guards against unknown modes in config files.
func validateTapMode(m TapMode) error {
	if m != TapMirror && m != TapInline {
		return fmt.Errorf("eval: unknown tap mode %d", m)
	}
	return nil
}
