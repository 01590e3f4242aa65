package ids

import (
	"time"

	"repro/internal/detect"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/simtime"
)

// SensorState is a sensor's operational state.
type SensorState int

// Sensor states.
const (
	SensorUp SensorState = iota
	SensorFailed
)

// Sensor is the sensing subprocess: it runs a detection engine over its
// share of traffic with a finite processing budget. Overload first drops
// packets (the zero-loss-throughput boundary) and, sustained past the
// lethal rate, kills the sensor (the network-lethal-dose boundary).
type Sensor struct {
	sim    *simtime.Sim
	id     int
	engine detect.Engine

	queueLimit int

	state        SensorState
	failureMode  FailureMode
	lethalRate   int // drops/sec that kill the sensor; 0 = indestructible
	restartAfter time.Duration

	// drop-rate tracking (tumbling 1s window)
	dropWindowStart simtime.Time
	dropsThisWindow int

	// SpeedFactor scales processing speed (see Config.SensorSpeedFactor).
	SpeedFactor float64

	// Fault-injection state. hung suppresses automatic restart until
	// InjectRecover; slowScale in (0,1) derates processing speed.
	hung      bool
	slowScale float64

	// deliver forwards alerts toward the analyzer.
	deliver func(alerts []detect.Alert)
	// onStateChange reports failure (false) and recovery (true) to the
	// owning IDS for self-health reporting.
	onStateChange func(recovered bool)

	// pending queues the packets awaiting inspection, each due at its
	// completion time; its Tail is when the processing budget frees up.
	pending *simtime.Lane[*packet.Packet]
	// prescan is non-nil when the engine supports batched payload
	// scanning. The last prescan covers the next scanned packets to pop,
	// the first of which has index batchIdx in its batch.
	prescan  detect.Prescanning
	scanned  int
	batchIdx int
	// scratch reuses the payload-batch slice across scan cycles.
	scratch [][]byte

	// BatchScans counts batched scan cycles; BatchPackets counts packets
	// whose payload scan rode a batch.
	BatchScans   uint64
	BatchPackets uint64

	// Counters.
	Processed uint64
	Dropped   uint64
	Failures  int
	// FailedDuration accumulates downtime.
	FailedDuration time.Duration
	failedAt       simtime.Time
	// BusyTime accumulates engine processing time for utilization and
	// host-impact accounting.
	BusyTime time.Duration

	// Telemetry instruments; nil (free no-ops) unless instrumented.
	cPicked, cProcessed, cDropped *obs.Counter
	cBatchScans, cBatchPkts       *obs.Counter
	gQueue                        *obs.Gauge
	hScanSim                      *obs.Histogram // modeled per-packet scan cost
	hScanWall                     *obs.Histogram // real engine.Inspect time
}

// instrument registers the sensor's telemetry under the given prefix.
func (s *Sensor) instrument(reg *obs.Registry, base string) {
	s.cProcessed = reg.Counter(base + "processed")
	s.cDropped = reg.Counter(base + "dropped")
	s.cBatchScans = reg.Counter(base + "batch_scans")
	s.cBatchPkts = reg.Counter(base + "batch_packets")
	s.gQueue = reg.Gauge(base + "queue_depth")
	s.hScanSim = reg.Histogram(base+"scan_cost_ns", obs.ClockSim)
	s.hScanWall = reg.Histogram(base+"scan_wall_ns", obs.ClockWall)
}

// NewSensor builds one sensor.
func NewSensor(sim *simtime.Sim, id int, engine detect.Engine, queueLimit int, mode FailureMode, lethalRate int, restartAfter time.Duration) *Sensor {
	s := &Sensor{
		sim: sim, id: id, engine: engine,
		queueLimit: queueLimit, failureMode: mode,
		lethalRate: lethalRate, restartAfter: restartAfter,
	}
	s.pending = simtime.NewLane(sim, s.inspect)
	s.prescan, _ = engine.(detect.Prescanning)
	return s
}

// SetDeliver installs the alert path for a standalone sensor — one built
// outside an IDS assembly (ids.New wires its own). The sharded testbed
// uses this to route each segment sensor's alerts straight to its
// domain-local analyzer.
func (s *Sensor) SetDeliver(fn func(alerts []detect.Alert)) { s.deliver = fn }

// ID returns the sensor's index.
func (s *Sensor) ID() int { return s.id }

// State returns the operational state.
func (s *Sensor) State() SensorState { return s.state }

// QueueDepth returns pending packets (the dynamic balancer's load signal).
func (s *Sensor) QueueDepth() int { return s.pending.Len() }

// QueueLimit returns the sensor's pending-packet bound.
func (s *Sensor) QueueLimit() int { return s.queueLimit }

// PassVerdict reports whether an in-line deployment should keep
// forwarding traffic given this sensor's state: false only for a
// fail-closed sensor that is down.
func (s *Sensor) PassVerdict() bool {
	return !(s.state == SensorFailed && s.failureMode == FailClosed)
}

// Offer hands the sensor one packet.
func (s *Sensor) Offer(p *packet.Packet) {
	now := s.sim.Now()
	if s.state == SensorFailed {
		// A failed sensor inspects nothing. Fail-open silently misses;
		// the drop counter records the blindness either way.
		s.Dropped++
		s.cDropped.Inc()
		return
	}
	if s.pending.Len() >= s.queueLimit {
		s.Dropped++
		s.cDropped.Inc()
		s.noteDrop(now)
		return
	}
	cost := s.engine.CostPerPacket(p)
	if s.SpeedFactor > 0 && s.SpeedFactor != 1 {
		cost = time.Duration(float64(cost) / s.SpeedFactor)
	}
	if s.slowScale > 0 && s.slowScale < 1 {
		cost = time.Duration(float64(cost) / s.slowScale)
	}
	s.BusyTime += cost
	s.hScanSim.Observe(int64(cost))
	s.pending.Push(max(now, s.pending.Tail())+cost, p)
	s.gQueue.Set(int64(s.pending.Len()))
}

// inspect completes one queued packet at its completion time. When the
// engine supports prescanning and the last prescan does not cover the
// packet, the packet and every one still queued behind it are scanned as
// one interleaved batch first: the "scan cycle drains its queue as a
// batch" hot path. Everything observable (counters, failure handling,
// alert content and timing) is identical to per-packet inspection:
// prescanning is pure, and the stateful inspection phase still runs
// here, per packet, at this packet's own completion time.
func (s *Sensor) inspect(p *packet.Packet) {
	s.gQueue.Set(int64(s.pending.Len()))
	if s.state == SensorFailed {
		// A dead sensor inspects nothing; a prescan result memoized for
		// the packet is simply discarded (the scan was pure).
		s.takeBatchIdx()
		return
	}
	s.Processed++
	s.cProcessed.Inc()
	// Wall-clock scan timing: real harness cost of the detection
	// engine, as opposed to the modeled sim cost above. Reading the
	// wall clock never touches the simulation, so determinism holds.
	// A batch's whole scan cost lands on the packet that triggered it.
	var t0 time.Time
	if s.hScanWall != nil {
		t0 = time.Now()
	}
	if s.prescan != nil && s.scanned == 0 {
		s.prescanPending(p)
	}
	var alerts []detect.Alert
	if i := s.takeBatchIdx(); i >= 0 {
		alerts = s.prescan.InspectPrescanned(p, s.sim.Now(), i)
	} else {
		alerts = s.engine.Inspect(p, s.sim.Now())
	}
	if s.hScanWall != nil {
		s.hScanWall.Observe(int64(time.Since(t0)))
	}
	if len(alerts) > 0 && s.deliver != nil {
		s.deliver(alerts)
	}
}

// takeBatchIdx returns the popped packet's index in the last prescan's
// batch and moves past it, or -1 when that prescan does not cover it.
func (s *Sensor) takeBatchIdx() int {
	if s.scanned == 0 {
		return -1
	}
	s.scanned--
	s.batchIdx++
	return s.batchIdx - 1
}

// prescanPending batch-scans the popped head's payload and every queued
// one in one interleaved automaton pass, and memoizes their match sets.
// It runs only once the last prescan's packets have all popped (FIFO
// consumption), so overwriting the engine's batch memo is safe.
func (s *Sensor) prescanPending(head *packet.Packet) {
	s.scratch = append(s.scratch[:0], head.Payload)
	for i := 0; i < s.pending.Len(); i++ {
		s.scratch = append(s.scratch, s.pending.At(i).Payload)
	}
	n := len(s.scratch)
	ok := s.prescan.PrescanBatch(s.scratch)
	clear(s.scratch)
	if !ok {
		return
	}
	s.scanned, s.batchIdx = n, 0
	s.BatchScans++
	s.BatchPackets += uint64(n)
	s.cBatchScans.Inc()
	s.cBatchPkts.Add(uint64(n))
}

// noteDrop tracks the drop rate and triggers lethal-dose failure.
func (s *Sensor) noteDrop(now simtime.Time) {
	if s.lethalRate <= 0 {
		return
	}
	if now-s.dropWindowStart > time.Second {
		s.dropWindowStart = now
		s.dropsThisWindow = 0
	}
	s.dropsThisWindow++
	if s.dropsThisWindow >= s.lethalRate {
		s.fail(now)
	}
}

// fail transitions the sensor to the failed state and arms restart.
func (s *Sensor) fail(now simtime.Time) {
	if s.state == SensorFailed {
		return
	}
	s.state = SensorFailed
	s.Failures++
	s.failedAt = now
	if s.onStateChange != nil {
		s.onStateChange(false)
	}
	if s.restartAfter > 0 {
		s.sim.MustSchedule(s.restartAfter, s.restart)
	}
}

// restart revives a failed sensor ("fatal errors cause restart of
// application(s) or service(s)" — the metric's high-score anchor). A
// hung sensor ignores its restart timer: a wedged process does not come
// back on its own.
func (s *Sensor) restart() {
	if s.state != SensorFailed || s.hung {
		return
	}
	s.FailedDuration += s.sim.Now() - s.failedAt
	s.state = SensorUp
	s.dropsThisWindow = 0
	s.dropWindowStart = s.sim.Now()
	if s.onStateChange != nil {
		s.onStateChange(true)
	}
}

// InjectCrash forces the sensor into the failed state, exactly as if the
// lethal dose had been reached: the product's own RestartAfter (if any)
// governs recovery, and failure-mode semantics apply unchanged. The
// sensor cannot tell an injected crash from an organic one — the fault
// harness's transparency contract.
func (s *Sensor) InjectCrash() { s.fail(s.sim.Now()) }

// InjectHang wedges the sensor: failed, and deaf to its own restart
// timer until InjectRecover. Models a process that is alive but stuck,
// which no watchdog-restart policy can clear.
func (s *Sensor) InjectHang() {
	s.hung = true
	s.fail(s.sim.Now())
}

// InjectRecover clears a hang (or any failure) and revives the sensor
// immediately — the injector's "operator intervention" at fault end.
func (s *Sensor) InjectRecover() {
	s.hung = false
	s.restart()
}

// InjectSlowdown derates processing speed by scale in (0,1) — a sensor
// limping through a slow restart or resource exhaustion. 0 or >=1
// restores nominal speed.
func (s *Sensor) InjectSlowdown(scale float64) {
	if scale <= 0 || scale >= 1 {
		s.slowScale = 0
		return
	}
	s.slowScale = scale
}

// Downtime returns accumulated failed time, including an ongoing outage.
func (s *Sensor) Downtime() time.Duration {
	d := s.FailedDuration
	if s.state == SensorFailed {
		d += s.sim.Now() - s.failedAt
	}
	return d
}
