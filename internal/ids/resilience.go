package ids

import (
	"time"

	"repro/internal/detect"
	"repro/internal/obs"
)

// Resilience configures the opt-in self-healing layer: a monitor-driven
// heartbeat that tracks per-sensor health, balancer rerouting away from
// dead or degraded sensors, and bounded spooling with retry/backoff for
// alerts caught in transit by an outage. The layer is off by default —
// an IDS without EnableResilience behaves bit-identically to one built
// before the layer existed, which is what the no-faults determinism
// guard pins.
type Resilience struct {
	// HeartbeatEvery is the health-poll period (default 500ms).
	HeartbeatEvery time.Duration
	// SpoolLimit bounds every spool (alerts or notifications) introduced
	// by the layer (default 4096). Overflow is counted, never buffered.
	SpoolLimit int
	// RetryBackoff is the initial redelivery delay (default 250ms).
	RetryBackoff time.Duration
	// RetryMax caps the doubling backoff (default 4s).
	RetryMax time.Duration
}

func (r *Resilience) applyDefaults() {
	if r.HeartbeatEvery <= 0 {
		r.HeartbeatEvery = 500 * time.Millisecond
	}
	if r.SpoolLimit <= 0 {
		r.SpoolLimit = 4096
	}
	if r.RetryBackoff <= 0 {
		r.RetryBackoff = 250 * time.Millisecond
	}
	if r.RetryMax <= 0 {
		r.RetryMax = 4 * time.Second
	}
}

// spooledBatch is one alert batch held back by the sensor→analyzer
// transit spool during an alert-loss fault.
type spooledBatch struct {
	an     *Analyzer
	alerts []detect.Alert
}

// resilienceState is the live self-healing machinery of one IDS.
type resilienceState struct {
	cfg   Resilience
	owner *IDS

	running bool
	healthy []bool

	// Transit spool for the sensor→analyzer path (alert-loss fault).
	spool      []spooledBatch
	spoolCount int
	retryArmed bool
	curBackoff time.Duration

	// HealthChecks counts heartbeat polls.
	HealthChecks uint64
	// Rerouted counts packets steered away from an unhealthy sensor.
	Rerouted uint64
	// Spooled / SpoolDelivered count alerts through the transit spool.
	Spooled        uint64
	SpoolDelivered uint64
	// Retries counts transit redelivery attempts that found the fault
	// still active.
	Retries uint64

	cRerouted, cSpooled, cDelivered *obs.Counter
	gUnhealthy                      *obs.Gauge
}

// EnableResilience switches the self-healing layer on. Call before the
// run starts; the heartbeat itself is started with StartHealthLoop so
// the caller controls when ticking begins (and Drain can finish).
func (s *IDS) EnableResilience(r Resilience) {
	r.applyDefaults()
	rs := &resilienceState{cfg: r, owner: s, healthy: make([]bool, len(s.sensors))}
	for i := range rs.healthy {
		rs.healthy[i] = true
	}
	s.res = rs
	for _, a := range s.analyzers {
		a.configureSpool(r.SpoolLimit, r.RetryBackoff, r.RetryMax)
	}
	s.monitor.configureMgmtSpool(r.SpoolLimit, r.RetryBackoff, r.RetryMax)
	rs.instrument(s.obsReg)
}

// ResilienceEnabled reports whether the self-healing layer is on. Only
// eval's external tests read it, to check that an empty fault scenario
// leaves the layer off.
func (s *IDS) ResilienceEnabled() bool { return s.res != nil }

// ResilienceStats exposes the layer's counters (zero value when off).
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
		Spooled:        s.res.Spooled,
		SpoolDelivered: s.res.SpoolDelivered,
		Retries:        s.res.Retries,
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
	rs.cSpooled = reg.Counter("ids.spool.spooled")
	rs.cDelivered = reg.Counter("ids.spool.delivered")
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
	rs.owner.sim.MustSchedule(rs.cfg.HeartbeatEvery, rs.tick)
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
// redelivery. Whole-batch granularity: a batch that does not fit is
// refused and the caller accounts the loss.
func (rs *resilienceState) spoolBatch(an *Analyzer, alerts []detect.Alert) bool {
	if rs.spoolCount+len(alerts) > rs.cfg.SpoolLimit {
		return false
	}
	rs.spool = append(rs.spool, spooledBatch{an: an, alerts: alerts})
	rs.spoolCount += len(alerts)
	rs.Spooled += uint64(len(alerts))
	rs.cSpooled.Add(uint64(len(alerts)))
	rs.armRetry()
	return true
}

func (rs *resilienceState) armRetry() {
	if rs.retryArmed {
		return
	}
	rs.retryArmed = true
	delay := rs.curBackoff
	if delay <= 0 {
		delay = rs.cfg.RetryBackoff
	}
	rs.owner.sim.MustSchedule(delay, rs.retryFlush)
}

// retryFlush redelivers the transit spool once the alert-loss fault has
// cleared, backing off (doubling, capped) while it persists.
func (rs *resilienceState) retryFlush() {
	rs.retryArmed = false
	if len(rs.spool) == 0 {
		rs.curBackoff = 0
		return
	}
	if rs.owner.alertLossActive {
		rs.Retries++
		rs.curBackoff *= 2
		if rs.curBackoff < rs.cfg.RetryBackoff {
			rs.curBackoff = rs.cfg.RetryBackoff
		}
		if rs.curBackoff > rs.cfg.RetryMax {
			rs.curBackoff = rs.cfg.RetryMax
		}
		rs.armRetry()
		return
	}
	batches := rs.spool
	rs.spool = nil
	rs.spoolCount = 0
	rs.curBackoff = 0
	for _, b := range batches {
		rs.SpoolDelivered += uint64(len(b.alerts))
		rs.cDelivered.Add(uint64(len(b.alerts)))
		b.an.Submit(b.alerts)
	}
}
