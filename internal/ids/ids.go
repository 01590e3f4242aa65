// Package ids implements the paper's generalized network-IDS architecture
// (Section 2.2, Figures 1 and 2): the five sequential subprocesses —
// load balancing, sensing, analyzing, monitoring, managing — with their
// relational cardinalities (load balancer 1c:M sensors, sensors M:M
// analyzers, analyzers M:1 monitor, monitor 1:1c console, console 1c:M
// components). Simulated commercial products in internal/products are
// assembled from these parts with different engines, capacities, and
// failure behaviours.
package ids

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// BalancerKind selects the load-balancing subprocess behaviour, mirroring
// the Scalable Load-balancing metric's anchors: none (low), static (avg),
// intelligent dynamic (high).
type BalancerKind int

// Balancer kinds.
const (
	// BalancerNone sends all traffic to sensor 0 (centralized collection).
	BalancerNone BalancerKind = iota
	// BalancerStatic spreads traffic by source subnet, the "static
	// methods such as placement" of the paper; individual sensors "may
	// overload or starve".
	BalancerStatic
	// BalancerFlowHash spreads flows by canonical 5-tuple hash, keeping
	// TCP sessions on one sensor.
	BalancerFlowHash
	// BalancerDynamic assigns new flows to the least-loaded sensor and
	// pins them there (session-aware, "intelligent, dynamic").
	BalancerDynamic
)

// String names the kind.
func (k BalancerKind) String() string {
	switch k {
	case BalancerNone:
		return "none"
	case BalancerStatic:
		return "static"
	case BalancerFlowHash:
		return "flow-hash"
	case BalancerDynamic:
		return "dynamic"
	default:
		return fmt.Sprintf("balancer(%d)", int(k))
	}
}

// FailureMode is what a sensor does when driven past its lethal dose —
// the behaviour the Error Reporting and Recovery metric scores.
type FailureMode int

// Failure modes.
const (
	// FailOpen stops inspecting; traffic is unaffected (passive sensor
	// goes blind, in-line sensor forwards uninspected).
	FailOpen FailureMode = iota
	// FailClosed blocks traffic through an in-line deployment while down.
	FailClosed
	// FailCrash halts the sensor entirely until restarted.
	FailCrash
)

// String names the mode.
func (m FailureMode) String() string {
	switch m {
	case FailOpen:
		return "fail-open"
	case FailClosed:
		return "fail-closed"
	case FailCrash:
		return "fail-crash"
	default:
		return fmt.Sprintf("failure(%d)", int(m))
	}
}

// Config assembles an IDS instance.
type Config struct {
	// Name identifies the deployment (usually the product name).
	Name string
	// Sensors is the sensing fan-out (>=1).
	Sensors int
	// Analyzers is the analysis fan-in pool (>=1; sensors map round-robin).
	Analyzers int
	// Balancer selects the load-balancing subprocess. With BalancerNone
	// and >1 sensors, construction fails: the paper's architecture gives
	// every sensor exactly one balancer (1c:M) or static placement.
	Balancer BalancerKind
	// BalancerCost is the per-packet load-balancer latency (0 = free).
	BalancerCost time.Duration
	// Engine builds the detection engine for one sensor.
	Engine func() detect.Engine
	// SensorQueue is each sensor's pending-packet limit.
	SensorQueue int
	// SensorSpeedFactor scales sensor processing speed relative to the
	// engine's nominal per-packet cost (2 = twice as fast, 0.5 = half;
	// default 1). It models implementation maturity: optimized
	// commercial sensors versus research prototypes.
	SensorSpeedFactor float64
	// LethalDropsPerSec is the sustained per-sensor drop rate that kills
	// the sensor (0 = indestructible).
	LethalDropsPerSec int
	// FailureMode is the sensor's behaviour after death.
	FailureMode FailureMode
	// RestartAfter revives failed sensors after this delay (0 = never).
	RestartAfter time.Duration
	// SeparateAnalysis models sensing and analysis on distinct machines:
	// alert delivery pays AnalysisLatency and per-alert network bytes
	// (Section 2.2: "separation adds network overhead").
	SeparateAnalysis bool
	// AnalysisLatency is the sensor->analyzer delivery delay when
	// separated.
	AnalysisLatency time.Duration
	// CorrelationWindow groups alerts for the same (attacker, victim,
	// technique) into one reported incident.
	CorrelationWindow time.Duration
	// NotifyThreshold is the monitor's minimum severity for operator
	// notification.
	NotifyThreshold float64
	// HasConsole attaches the optional management console (1:1c).
	HasConsole bool
	// StorageBytesPerAlert models analyzer historical-data retention.
	StorageBytesPerAlert int
	// RecordSessions captures the traffic of alerting flows for later
	// playback (Session Recording and Playback capability).
	RecordSessions bool
	// RecordBudgetBytes bounds each recording (default 64 KiB).
	RecordBudgetBytes int
}

// ApplyDefaults fills zero values with the assembly defaults New uses.
func (c *Config) ApplyDefaults() {
	if c.Sensors == 0 {
		c.Sensors = 1
	}
	if c.Analyzers == 0 {
		c.Analyzers = 1
	}
	if c.SensorQueue == 0 {
		c.SensorQueue = 2048
	}
	if c.CorrelationWindow == 0 {
		c.CorrelationWindow = 5 * time.Second
	}
	if c.NotifyThreshold == 0 {
		c.NotifyThreshold = 0.5
	}
	if c.AnalysisLatency == 0 && c.SeparateAnalysis {
		c.AnalysisLatency = 2 * time.Millisecond
	}
	if c.StorageBytesPerAlert == 0 {
		c.StorageBytesPerAlert = 512
	}
	if c.SensorSpeedFactor == 0 {
		c.SensorSpeedFactor = 1
	}
}

// IDS is one assembled intrusion detection system.
type IDS struct {
	sim *simtime.Sim
	cfg Config

	sensors   []*Sensor
	analyzers []*Analyzer
	monitor   *Monitor
	console   *Console

	// flowPins maps canonical flows to sensors for the dynamic balancer.
	flowPins map[packet.FlowKey]int
	// balanced carries packets through the balancer's latency to their
	// sensors; nil when BalancerCost is zero.
	balanced *simtime.Lane[offer]

	// recorder captures alerting flows when RecordSessions is set.
	recorder *sessionRecorder
	// pool filters which traffic is analyzed (nil = all).
	pool *DataPool
	// selfEvents records sensor failure/recovery health events.
	selfEvents []SelfEvent

	// res is the opt-in self-healing layer; nil keeps every hot path on
	// the exact pre-resilience behaviour.
	res *resilienceState
	// alertLossActive, while set by the fault injector, severs the
	// sensor→analyzer alert path.
	alertLossActive bool

	// Ingested counts packets offered to the IDS.
	Ingested uint64
	// PoolSkipped counts packets the data pool excluded from analysis.
	PoolSkipped uint64
	// AlertNetBytes accumulates modeled sensor->analyzer network overhead.
	AlertNetBytes uint64
	// AlertsLost counts alerts severed in sensor→analyzer transit by the
	// alert-loss fault (accounted, never silently dropped).
	AlertsLost uint64

	// Telemetry instruments; nil (free no-ops) unless Instrument is called.
	cIngested, cPoolSkipped, cAlertsLost *obs.Counter
	obsReg                               *obs.Registry
}

// Instrument wires telemetry through every subprocess of the IDS under
// the "ids." namespace: ingest and pool counters, per-sensor fan-out and
// scan timing, per-analyzer alert counts, and monitor incident flow.
// Idempotent; a nil registry leaves the IDS uninstrumented.
func (s *IDS) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.obsReg = reg
	s.cIngested = reg.Counter("ids.ingested")
	s.cPoolSkipped = reg.Counter("ids.pool_skipped")
	s.cAlertsLost = reg.Counter("ids.alerts_lost")
	for i, sn := range s.sensors {
		sn.instrument(reg, fmt.Sprintf("ids.sensor.s%d.", i))
		sn.cPicked = reg.Counter(fmt.Sprintf("ids.balancer.fanout.s%d", i))
	}
	// One shared counter across analyzers: the alert path's total drop
	// accounting, regardless of which analyzer's spool overflowed.
	dropped := reg.Counter("ids.analyzer.alerts_dropped")
	for _, a := range s.analyzers {
		a.cAlerts = reg.Counter(fmt.Sprintf("ids.analyzer.a%d.alerts", a.id))
		a.cDropped = dropped
	}
	s.monitor.cIncidents = reg.Counter("ids.monitor.incidents")
	s.monitor.cNotifications = reg.Counter("ids.monitor.notifications")
	s.monitor.cMgmtDropped = reg.Counter("ids.monitor.mgmt_dropped")
	s.monitor.mgmt.cRetries = reg.Counter("ids.monitor.mgmt_retries")
	if s.res != nil {
		s.res.instrument(reg)
	}
}

// New assembles an IDS from cfg.
func New(sim *simtime.Sim, cfg Config) (*IDS, error) {
	cfg.ApplyDefaults()
	if cfg.Engine == nil {
		return nil, errors.New("ids: config needs an Engine factory")
	}
	if cfg.Sensors < 1 || cfg.Analyzers < 1 {
		return nil, fmt.Errorf("ids: sensors=%d analyzers=%d must be >= 1", cfg.Sensors, cfg.Analyzers)
	}
	if cfg.Balancer == BalancerNone && cfg.Sensors > 1 {
		return nil, fmt.Errorf("ids: %d sensors need a load balancer or static placement", cfg.Sensors)
	}
	s := &IDS{sim: sim, cfg: cfg, flowPins: make(map[packet.FlowKey]int)}
	if cfg.BalancerCost > 0 {
		s.balanced = simtime.NewLane(sim, func(o offer) { o.to.Offer(o.p) })
	}
	if cfg.RecordSessions {
		s.recorder = newSessionRecorder(cfg.RecordBudgetBytes, 0)
	}
	s.monitor = NewMonitor(sim, cfg.NotifyThreshold)
	for i := 0; i < cfg.Analyzers; i++ {
		s.analyzers = append(s.analyzers, NewAnalyzer(sim, i, cfg.CorrelationWindow, cfg.StorageBytesPerAlert, s.monitor))
	}
	for i := 0; i < cfg.Sensors; i++ {
		an := s.analyzers[i%cfg.Analyzers]
		sensor := NewSensor(sim, i, cfg.Engine(), cfg.SensorQueue, cfg.FailureMode, cfg.LethalDropsPerSec, cfg.RestartAfter)
		sensor.SpeedFactor = cfg.SensorSpeedFactor
		sensor.deliver = s.deliverFunc(an)
		id := i
		sensor.onStateChange = func(recovered bool) { s.noteSensorEvent(id, recovered) }
		s.sensors = append(s.sensors, sensor)
	}
	if cfg.HasConsole {
		s.console = NewConsole(sim)
		s.monitor.onNotify = s.console.handleThreat
	}
	return s, nil
}

// deliverFunc routes a sensor's alerts to its analyzer, modeling the
// separation overhead when configured.
func (s *IDS) deliverFunc(an *Analyzer) func(alerts []detect.Alert) {
	return func(alerts []detect.Alert) {
		if len(alerts) == 0 {
			return
		}
		if s.recorder != nil {
			for _, a := range alerts {
				s.recorder.arm(a.Flow, s.sim.Now())
			}
		}
		if s.alertLossActive {
			// The transit path is severed: spool for redelivery when the
			// resilience layer has room, otherwise account the loss.
			if s.res == nil || !s.res.spoolBatch(an, alerts) {
				s.AlertsLost += uint64(len(alerts))
				s.cAlertsLost.Add(uint64(len(alerts)))
			}
			return
		}
		if s.cfg.SeparateAnalysis {
			s.AlertNetBytes += uint64(len(alerts) * 300)
			s.sim.MustSchedule(s.cfg.AnalysisLatency, func() {
				an.Submit(alerts)
			})
			return
		}
		an.Submit(alerts)
	}
}

// Monitor returns the monitoring subprocess.
func (s *IDS) Monitor() *Monitor { return s.monitor }

// Console returns the management console, or nil if not configured.
func (s *IDS) Console() *Console { return s.console }

// Sensors returns the sensing pool.
func (s *IDS) Sensors() []*Sensor { return s.sensors }

// Analyzers returns the analysis pool.
func (s *IDS) Analyzers() []*Analyzer { return s.analyzers }

// Train feeds one known-benign packet to every sensor engine's baseline
// (deployed products distribute one learned profile to all sensors).
func (s *IDS) Train(p *packet.Packet) {
	now := s.sim.Now()
	for _, sn := range s.sensors {
		sn.engine.Train(p, now)
	}
}

// pickSensor applies the load-balancing subprocess.
func (s *IDS) pickSensor(p *packet.Packet) *Sensor {
	n := len(s.sensors)
	if n == 1 {
		return s.sensors[0]
	}
	switch s.cfg.Balancer {
	case BalancerStatic:
		// Placement by source subnet: uneven by design.
		return s.sensors[int(p.Src>>8)%n]
	case BalancerFlowHash:
		return s.sensors[int(p.Key().Hash()%uint64(n))]
	case BalancerDynamic:
		k := p.Key().Canonical()
		if idx, ok := s.flowPins[k]; ok {
			return s.sensors[idx]
		}
		best := 0
		for i := 1; i < n; i++ {
			if s.sensors[i].QueueDepth() < s.sensors[best].QueueDepth() {
				best = i
			}
		}
		s.flowPins[k] = best
		return s.sensors[best]
	default:
		return s.sensors[0]
	}
}

// Ingest offers one packet to the IDS (the tap entry point). It reports
// whether an in-line deployment should forward the packet: false only
// when a fail-closed sensor is down or the console's response policy has
// blocked the source.
func (s *IDS) Ingest(p *packet.Packet) bool {
	s.Ingested++
	s.cIngested.Inc()
	if s.recorder != nil {
		s.recorder.observe(p)
	}
	if s.console != nil && s.console.Firewall.Blocked(p.Src) {
		s.console.Firewall.FilteredPackets++
		return false
	}
	if !s.pool.Selects(p) {
		s.PoolSkipped++
		s.cPoolSkipped.Inc()
		return true
	}
	picked := s.pickSensor(p)
	target := picked
	if s.res != nil {
		// Health-driven rerouting. The verdict still honours the picked
		// sensor's failure mode: a down fail-closed sensor blocks its
		// share of traffic even while analysis is rerouted — resilience
		// restores detection coverage, not the product's in-line policy.
		target = s.res.reroute(picked)
	}
	target.cPicked.Inc()
	if s.balanced != nil {
		// Balancer latency is modeled as added delay before sensing;
		// the packet itself (in-line) is not held, matching a mirroring
		// balancer. In-line hold cost is modeled by netsim.InlineDevice.
		s.balanced.Push(s.sim.Now()+s.cfg.BalancerCost, offer{to: target, p: p})
		return picked.PassVerdict() && target.PassVerdict()
	}
	target.Offer(p)
	return picked.PassVerdict() && target.PassVerdict()
}

// offer is one packet bound for a sensor once the balancer's latency
// has passed.
type offer struct {
	to *Sensor
	p  *packet.Packet
}

// SetAlertLoss arms (true) or clears (false) the alert-loss fault on the
// sensor→analyzer path. While armed, alert batches are spooled for
// retry (resilience on) or counted in AlertsLost (resilience off).
func (s *IDS) SetAlertLoss(active bool) { s.alertLossActive = active }

// SetSensitivity adjusts every sensor engine (centralized management).
func (s *IDS) SetSensitivity(v float64) error {
	for _, sn := range s.sensors {
		if err := sn.engine.SetSensitivity(v); err != nil {
			return err
		}
	}
	return nil
}

// Flush closes analyzer correlation windows; call when a run drains.
func (s *IDS) Flush() {
	for _, a := range s.analyzers {
		a.Flush()
	}
}

// Stats aggregates run counters across subprocesses.
type Stats struct {
	Ingested       uint64
	Processed      uint64
	SensorDropped  uint64
	SensorFailures int
	AlertsRaised   uint64
	Incidents      int
	Notifications  int
	StorageBytes   uint64
	AlertNetBytes  uint64
	// SensorBusy is total engine processing time across sensors (sim
	// time) — the denominator of the scan-throughput telemetry metric.
	SensorBusy time.Duration

	// Fault accounting: every alert that failed to traverse the pipeline
	// is in exactly one of these buckets, never silently gone.
	AlertsLost     uint64 // severed in sensor→analyzer transit
	AlertsDropped  uint64 // lost at the analyzer boundary (stall/overflow)
	SpoolDelivered uint64 // delivered late via the transit or an analyzer spool
	MgmtDropped    uint64 // console deliveries lost to a mgmt outage
	SensorDowntime time.Duration
}

// Stats snapshots the current counters.
func (s *IDS) Stats() Stats {
	var st Stats
	st.Ingested = s.Ingested
	st.AlertNetBytes = s.AlertNetBytes
	st.AlertsLost = s.AlertsLost
	st.MgmtDropped = s.monitor.MgmtDropped
	for _, sn := range s.sensors {
		st.Processed += sn.Processed
		st.SensorDropped += sn.Dropped
		st.SensorFailures += sn.Failures
		st.SensorBusy += sn.BusyTime
		st.SensorDowntime += sn.Downtime()
	}
	for _, a := range s.analyzers {
		st.AlertsRaised += a.AlertsSeen
		st.StorageBytes += a.StorageBytes
		st.AlertsDropped += a.DroppedAlerts
		st.SpoolDelivered += a.spool.delivered
	}
	if s.res != nil {
		st.SpoolDelivered += s.res.transit.delivered
	}
	st.Incidents = len(s.monitor.Incidents)
	st.Notifications = len(s.monitor.Notifications)
	return st
}

// Cardinality reports the subprocess fan-out/fan-in so tests can verify
// the Figure-2 relationships.
type Cardinality struct {
	Balancers       int // 0 or 1 (1c)
	Sensors         int
	Analyzers       int
	Monitors        int // always 1
	Consoles        int // 0 or 1 (1c)
	SensorsPerLB    int
	SensorToAnalyze map[int]int // sensor index -> analyzer index
}

// Cardinality computes the current wiring. No command prints it:
// BenchmarkFigure2Cardinality regenerates Figure 2 from it, and
// TestPropertyCardinality pins it.
func (s *IDS) Cardinality() Cardinality {
	c := Cardinality{
		Sensors:         len(s.sensors),
		Analyzers:       len(s.analyzers),
		Monitors:        1,
		SensorToAnalyze: make(map[int]int),
	}
	if s.cfg.Balancer != BalancerNone && s.cfg.Balancer != BalancerStatic {
		c.Balancers = 1
		c.SensorsPerLB = len(s.sensors)
	}
	if s.console != nil {
		c.Consoles = 1
	}
	for i := range s.sensors {
		c.SensorToAnalyze[i] = i % len(s.analyzers)
	}
	return c
}
