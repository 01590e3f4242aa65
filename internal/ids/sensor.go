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

	queueDepth int
	queueLimit int
	busyUntil  simtime.Time

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

	// pending is the FIFO of queued packets awaiting inspection. Each
	// entry still gets its own sim event at exactly the instant the old
	// per-packet closure fired (so event order is untouched); the ring
	// replaces the per-packet closure capture and carries batched-scan
	// memo state.
	pending pendingRing
	// prescan is non-nil when the engine supports batched payload
	// scanning; inspectFn is the shared event callback, bound once.
	prescan   detect.Prescanning
	inspectFn func()
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
	s.prescan, _ = engine.(detect.Prescanning)
	s.inspectFn = s.inspectNext
	return s
}

// SetDeliver installs the alert path for a standalone sensor — one built
// outside an IDS assembly (ids.New wires its own). The sharded testbed
// uses this to route each segment sensor's alerts straight to its
// domain-local analyzer.
func (s *Sensor) SetDeliver(fn func(alerts []detect.Alert)) { s.deliver = fn }

// pendingEntry is one queued packet plus its batched-scan memo: once a
// scan cycle has covered the entry, idx points at its match set in the
// engine's prescan batch.
type pendingEntry struct {
	p       *packet.Packet
	scanned bool
	idx     int32
}

// pendingRing is a growable FIFO of pendingEntry (power-of-two ring).
type pendingRing struct {
	buf  []pendingEntry
	head int
	n    int
}

func (r *pendingRing) push(p *packet.Packet) {
	if r.n == len(r.buf) {
		grown := make([]pendingEntry, max(16, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = *r.at(i)
		}
		r.buf, r.head = grown, 0
	}
	*r.at(r.n) = pendingEntry{p: p}
	r.n++
}

func (r *pendingRing) at(i int) *pendingEntry {
	return &r.buf[(r.head+i)&(len(r.buf)-1)]
}

func (r *pendingRing) pop() {
	*r.at(0) = pendingEntry{}
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

// ID returns the sensor's index.
func (s *Sensor) ID() int { return s.id }

// State returns the operational state.
func (s *Sensor) State() SensorState { return s.state }

// QueueDepth returns pending packets (the dynamic balancer's load signal).
func (s *Sensor) QueueDepth() int { return s.queueDepth }

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
	if s.queueDepth >= s.queueLimit {
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
	start := now
	if s.busyUntil > start {
		start = s.busyUntil
	}
	s.busyUntil = start + cost
	s.queueDepth++
	s.gQueue.Set(int64(s.queueDepth))
	s.BusyTime += cost
	s.hScanSim.Observe(int64(cost))
	// One event per packet at exactly the packet's completion instant —
	// same times, same scheduling order as the historical per-packet
	// closure, so the simulation's (time, seq) event order is untouched.
	// The ring supplies the packet at fire time.
	s.pending.push(p)
	s.sim.MustSchedule(s.busyUntil-now, s.inspectFn)
}

// inspectNext completes the head pending packet: the sensor's per-packet
// completion event. When the engine supports prescanning and the head
// has not been covered by a batch scan yet, the whole pending queue is
// scanned as one interleaved batch first — the "scan cycle drains its
// queue as a batch" hot path. Everything observable (counters, failure
// handling, alert content and timing) is identical to per-packet
// inspection: prescanning is pure, and the stateful inspection phase
// still runs here, per packet, at this packet's own completion time.
func (s *Sensor) inspectNext() {
	ent := s.pending.at(0)
	s.queueDepth--
	s.gQueue.Set(int64(s.queueDepth))
	if s.state == SensorFailed {
		// A dead sensor inspects nothing; any memoized prescan result
		// for this entry is simply discarded (the scan was pure).
		s.pending.pop()
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
	if s.prescan != nil && !ent.scanned {
		s.prescanPending()
	}
	var alerts []detect.Alert
	if ent.scanned {
		alerts = s.prescan.InspectPrescanned(ent.p, s.sim.Now(), int(ent.idx))
	} else {
		alerts = s.engine.Inspect(ent.p, s.sim.Now())
	}
	s.pending.pop()
	if s.hScanWall != nil {
		s.hScanWall.Observe(int64(time.Since(t0)))
	}
	if len(alerts) > 0 && s.deliver != nil {
		s.deliver(alerts)
	}
}

// prescanPending batch-scans every pending payload (head included) in
// one interleaved automaton pass and memoizes per-entry match sets.
// Invariant: a prescan only ever happens when no previously-scanned
// entries remain (FIFO consumption), so overwriting the engine's batch
// memo is safe.
func (s *Sensor) prescanPending() {
	s.scratch = s.scratch[:0]
	for i := 0; i < s.pending.n; i++ {
		s.scratch = append(s.scratch, s.pending.at(i).p.Payload)
	}
	ok := s.prescan.PrescanBatch(s.scratch)
	for i := range s.scratch {
		s.scratch[i] = nil
	}
	if !ok {
		return
	}
	for i := 0; i < s.pending.n; i++ {
		e := s.pending.at(i)
		e.scanned = true
		e.idx = int32(i)
	}
	s.BatchScans++
	s.BatchPackets += uint64(s.pending.n)
	s.cBatchScans.Inc()
	s.cBatchPkts.Add(uint64(s.pending.n))
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
