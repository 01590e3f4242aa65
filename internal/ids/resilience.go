package ids

import (
	"time"

	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/simtime"
)

// The self-healing layer's fixed knobs.
const (
	// heartbeatEvery is the health-poll period.
	heartbeatEvery = 500 * time.Millisecond
	// spoolLimit bounds every spool the layer adds. Overflow is counted,
	// never buffered.
	spoolLimit = 4096
	// retryBackoff is the first redelivery delay and the floor of the
	// doubling backoff.
	retryBackoff = 250 * time.Millisecond
	// retryMax caps the doubling backoff.
	retryMax = 4 * time.Second
)

// retrySpool is the layer's one bounded spool with doubling, capped
// retry. It holds items while faulted reports its fault. The first
// retry fires retryBackoff after the first item arrives; each retry
// that finds the fault still active doubles the next delay, from
// retryBackoff up to retryMax (250ms, 500ms, 1s, 2s, 4s, 4s, …). The
// first retry that finds it cleared delivers every item in arrival
// order. The loop always ends: it re-arms only while the fault
// persists, and every injected fault has a scheduled end. The retry is
// armed exactly while items wait.
//
// Until enable switches it on, a spool refuses every item: without the
// layer, each one is the caller's accounted loss.
type retrySpool[T any] struct {
	sim     *simtime.Sim
	faulted func() bool
	deliver func(T)

	items   []T
	backoff time.Duration

	// spooled, delivered and retries count items accepted, items
	// delivered late, and retries that found the fault still active.
	// The obs counters, where a call site sets them, mirror them.
	spooled, delivered, retries    uint64
	cSpooled, cDelivered, cRetries *obs.Counter
}

// enable switches the spool on with its call site's fault test and
// delivery function.
func (s *retrySpool[T]) enable(sim *simtime.Sim, faulted func() bool, deliver func(T)) {
	s.sim, s.faulted, s.deliver = sim, faulted, deliver
}

// room reports how many more items the spool accepts.
func (s *retrySpool[T]) room() int {
	if s.faulted == nil {
		return 0
	}
	return spoolLimit - len(s.items)
}

// add spools item and arms the retry if it is the only one waiting. It
// reports false, holding nothing, when the spool refuses the item.
func (s *retrySpool[T]) add(item T) bool {
	if s.room() == 0 {
		return false
	}
	if len(s.items) == 0 {
		s.sim.MustSchedule(retryBackoff, s.retry)
	}
	s.items = append(s.items, item)
	s.spooled++
	s.cSpooled.Inc()
	return true
}

// retry delivers the spool if the fault has cleared, and otherwise
// backs off and re-arms.
func (s *retrySpool[T]) retry() {
	if s.faulted() {
		s.retries++
		s.cRetries.Inc()
		s.backoff = min(max(2*s.backoff, retryBackoff), retryMax)
		s.sim.MustSchedule(s.backoff, s.retry)
		return
	}
	items := s.items
	s.items, s.backoff = nil, 0
	for _, it := range items {
		s.delivered++
		s.cDelivered.Inc()
		s.deliver(it)
	}
}

// transitAlert is one alert held back by the sensor→analyzer transit
// spool during an alert-loss fault.
type transitAlert struct {
	an    *Analyzer
	alert detect.Alert
}

// resilienceState is the live self-healing machinery of one IDS.
type resilienceState struct {
	owner *IDS

	running bool
	healthy []bool

	// transit spools the sensor→analyzer path through an alert-loss
	// fault.
	transit retrySpool[transitAlert]

	// HealthChecks counts heartbeat polls.
	HealthChecks uint64
	// Rerouted counts packets steered away from an unhealthy sensor.
	Rerouted uint64

	cRerouted  *obs.Counter
	gUnhealthy *obs.Gauge
}

// EnableResilience switches on the opt-in self-healing layer: a
// monitor-driven heartbeat that tracks per-sensor health, balancer
// rerouting away from dead or degraded sensors, and bounded spooling
// with retry/backoff for alerts caught by an outage. The layer is off
// by default — an IDS without EnableResilience behaves bit-identically
// to one built before the layer existed, which is what the no-faults
// determinism guard pins. Call before the run starts; the heartbeat
// itself is started with StartHealthLoop so the caller controls when
// ticking begins (and Drain can finish).
func (s *IDS) EnableResilience() {
	rs := &resilienceState{owner: s, healthy: make([]bool, len(s.sensors))}
	for i := range rs.healthy {
		rs.healthy[i] = true
	}
	rs.transit.enable(s.sim, func() bool { return s.alertLossActive },
		func(t transitAlert) { t.an.Submit([]detect.Alert{t.alert}) })
	s.res = rs
	for _, a := range s.analyzers {
		a.spool.enable(s.sim, func() bool { return a.stalled }, a.fold)
	}
	s.monitor.mgmt.enable(s.sim, func() bool { return s.monitor.outage }, s.monitor.onNotify)
	rs.instrument(s.obsReg)
}

// ResilienceEnabled reports whether the self-healing layer is on. Only
// eval's external tests read it, to check that an empty fault scenario
// leaves the layer off.
func (s *IDS) ResilienceEnabled() bool { return s.res != nil }

// ResilienceStats exposes the layer's counters (zero value when off).
// Spooled, SpoolDelivered and Retries count the transit spool: alerts
// spooled, alerts redelivered, and retries that found the alert-loss
// fault still active.
type ResilienceStats struct {
	HealthChecks   uint64
	Rerouted       uint64
	Spooled        uint64
	SpoolDelivered uint64
	Retries        uint64
}

// ResilienceStats snapshots the self-healing counters.
func (s *IDS) ResilienceStats() ResilienceStats {
	if s.res == nil {
		return ResilienceStats{}
	}
	return ResilienceStats{
		HealthChecks:   s.res.HealthChecks,
		Rerouted:       s.res.Rerouted,
		Spooled:        s.res.transit.spooled,
		SpoolDelivered: s.res.transit.delivered,
		Retries:        s.res.transit.retries,
	}
}

// StartHealthLoop begins heartbeat polling. No-op without resilience.
func (s *IDS) StartHealthLoop() {
	if s.res == nil || s.res.running {
		return
	}
	s.res.running = true
	s.res.tick()
}

// StopHealthLoop halts heartbeat polling so a draining simulation can
// reach an empty event queue.
func (s *IDS) StopHealthLoop() {
	if s.res != nil {
		s.res.running = false
	}
}

func (rs *resilienceState) instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	rs.cRerouted = reg.Counter("ids.balancer.rerouted")
	rs.transit.cSpooled = reg.Counter("ids.spool.spooled")
	rs.transit.cDelivered = reg.Counter("ids.spool.delivered")
	rs.gUnhealthy = reg.Gauge("ids.health.unhealthy")
}

// tick is one heartbeat: classify every sensor, then re-arm. A sensor is
// healthy when up with a queue below three quarters of its limit — the
// same degradation signal an operator's health dashboard would key on.
func (rs *resilienceState) tick() {
	if !rs.running {
		return
	}
	rs.HealthChecks++
	unhealthy := 0
	for i, sn := range rs.owner.sensors {
		h := sn.State() == SensorUp && sn.QueueDepth() < (3*sn.QueueLimit())/4
		rs.healthy[i] = h
		if !h {
			unhealthy++
		}
	}
	rs.gUnhealthy.Set(int64(unhealthy))
	rs.owner.sim.MustSchedule(heartbeatEvery, rs.tick)
}

// reroute steers a packet destined for an unhealthy sensor to the
// lowest-indexed healthy one. With no healthy sensor left, the original
// pick stands (and its failure mode decides the pass verdict).
func (rs *resilienceState) reroute(picked *Sensor) *Sensor {
	if rs.healthy[picked.ID()] {
		return picked
	}
	for i, h := range rs.healthy {
		if h {
			rs.Rerouted++
			rs.cRerouted.Inc()
			return rs.owner.sensors[i]
		}
	}
	return picked
}

// spoolBatch holds an alert batch caught by the alert-loss fault for
// redelivery, one spool item per alert. A batch that does not fit
// whole is refused, and the caller accounts the loss.
func (rs *resilienceState) spoolBatch(an *Analyzer, alerts []detect.Alert) bool {
	if rs.transit.room() < len(alerts) {
		return false
	}
	for _, al := range alerts {
		rs.transit.add(transitAlert{an: an, alert: al})
	}
	return true
}
