// Conservative parallel discrete-event simulation: one large topology
// partitioned into fixed event domains, each owning its own Sim, advanced
// in lockstep lookahead windows by a configurable number of executor
// goroutines.
//
// The design splits two concerns that are usually conflated:
//
//   - The DOMAIN STRUCTURE — how many domains exist and which model
//     component lives in which — is fixed by the topology (one domain per
//     leaf-switch segment, border/external infrastructure in domain 0).
//     It never varies with core count.
//
//   - The EXECUTOR COUNT — how many goroutines run those domains inside a
//     window — is a pure throughput knob (the -shards flag).
//
// Because the computation (window boundaries, per-domain event order,
// cross-domain message merge order) is identical for every executor
// count, a multi-shard run is byte-identical to the single-shard run at
// the same seed by construction, not by luck. This is the same bit-
// identity contract internal/par gives the evaluation matrix, applied
// inside one simulation.
//
// Synchronization is conservative and null-message-free: all domains run
// RunUntil(windowEnd-1), then cross-domain deliveries are exchanged at a
// barrier, then the window advances. The window length is the lookahead —
// the minimum cross-domain link propagation delay — so a message sent at
// time t >= windowStart arrives at t + delay >= windowStart + lookahead =
// windowEnd: never inside the window that produced it. No domain can
// therefore ever receive an event in its past, and no null messages or
// rollbacks are needed.
package simtime

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// maxTime is the sentinel deadline meaning "run to completion".
const maxTime Time = 1<<62 - 1

// shardMsg is one cross-domain delivery waiting at the barrier.
type shardMsg struct {
	at   Time   // delivery time in the destination domain
	sent Time   // virtual time Post was called (merge tie-break)
	src  int    // source domain (merge tie-break)
	idx  uint64 // per-(src,dst) send ordinal (final tie-break; unique)
	fn   func()
}

// ShardedSim coordinates a fixed set of event domains. Create one with
// NewSharded, wire a model whose cross-domain interactions all go
// through Post (netsim's Fabric does this at Link boundaries), set the
// lookahead, and drive it with Run/RunUntil like a plain Sim.
//
// The coordinator itself is single-threaded: all methods must be called
// from one goroutine (the one that owns the simulation). Model handlers
// run on that goroutine (Workers <= 1) or on whichever executor claimed
// their domain for the window: each domain runs on exactly one goroutine
// per window, and the barrier's atomic counters order every handoff, so
// domain state needs no locks.
type ShardedSim struct {
	domains   []*Sim
	lookahead Time
	now       Time // start of the next window (global committed time)
	workers   int

	// mail[src][dst] buffers outbound messages during a window; src's
	// executor appends, the coordinator drains at the barrier.
	mail    [][][]shardMsg
	mailIdx [][]uint64 // per-pair send ordinals
	posted  uint64
	windows uint64
	merged  []shardMsg // reusable merge scratch

	// Parallel barrier (helpers start lazily, on the first window with
	// workers > 1). The coordinator publishes target, zeroes done,
	// reopens next and bumps epoch; it and the helpers claim domains
	// from next and count each finished one into done. windowCounts,
	// started and finished hold one slot per domain, written by the
	// executor that ran it and read by the coordinator once done counts
	// every domain.
	target       Time
	epoch        atomic.Uint64
	next         atomic.Int64
	done         atomic.Int64
	helpers      []*helper
	quit         atomic.Bool // set by Close
	exited       sync.WaitGroup
	windowCounts []uint64
	started      []time.Time
	finished     []time.Time

	// Telemetry (nil = free no-ops).
	cEvents  []*obs.Counter
	cWindows *obs.Counter
	cPosted  *obs.Counter
	hStall   *obs.Histogram

	// Per-domain wall-clock attribution (nil = tracking off, zero cost on
	// the window loop). attrib accumulates; the gauges mirror it after
	// every window so a live /metrics scrape sees current totals.
	attrib     []DomainAttribution
	runStart   time.Time
	gBusy      []*obs.Gauge
	gBlocked   []*obs.Gauge
	gIdle      []*obs.Gauge
	gNow       *obs.Gauge
	hOccupancy *obs.Histogram
	flight     *obs.FlightRecorder
}

// DomainAttribution is one domain's accumulated wall-clock profile:
// Busy is time spent executing its events, Blocked is time idled at the
// window barrier waiting for the slowest domain (parallel executors
// only). Both are wall-clock measurements of the harness — they steer
// lookahead and partition tuning, never simulation results.
type DomainAttribution struct {
	Domain  int
	Events  uint64
	Windows uint64
	Busy    time.Duration
	Blocked time.Duration
}

// NewSharded creates a coordinator with the given number of event
// domains, each a fresh Sim seeded identically — named random streams
// deliver the same sequences they would on a lone Sim, so a model
// component draws identical randomness wherever its domain lives.
func NewSharded(seed int64, domains int) (*ShardedSim, error) {
	if domains < 1 {
		return nil, fmt.Errorf("simtime: sharded sim needs >= 1 domain, got %d", domains)
	}
	ss := &ShardedSim{workers: 1}
	for i := 0; i < domains; i++ {
		ss.domains = append(ss.domains, New(seed))
	}
	ss.mail = make([][][]shardMsg, domains)
	ss.mailIdx = make([][]uint64, domains)
	for i := range ss.mail {
		ss.mail[i] = make([][]shardMsg, domains)
		ss.mailIdx[i] = make([]uint64, domains)
	}
	ss.windowCounts = make([]uint64, domains)
	ss.started = make([]time.Time, domains)
	ss.finished = make([]time.Time, domains)
	// Nil *obs.Counter entries are free no-ops (obs instruments are
	// nil-safe), so the hot paths never branch on "instrumented?".
	ss.cEvents = make([]*obs.Counter, domains)
	return ss, nil
}

// Domains returns the fixed domain count.
func (ss *ShardedSim) Domains() int { return len(ss.domains) }

// Domain returns domain i's Sim. Model components scheduled on it must
// touch only state owned by domain i.
func (ss *ShardedSim) Domain(i int) *Sim { return ss.domains[i] }

// Windows returns how many synchronization windows have run.
func (ss *ShardedSim) Windows() uint64 { return ss.windows }

// CrossPosted returns how many cross-domain messages have been posted.
func (ss *ShardedSim) CrossPosted() uint64 { return ss.posted }

// Processed sums executed events across domains.
func (ss *ShardedSim) Processed() uint64 {
	var n uint64
	for _, d := range ss.domains {
		n += d.Processed()
	}
	return n
}

// SetLookahead fixes the window length. It must be positive: a zero
// lookahead means a cross-domain link with zero propagation delay, which
// gives conservative synchronization no safe window at all. netsim's
// Fabric derives it as the minimum cross-domain link propagation.
func (ss *ShardedSim) SetLookahead(d Time) error {
	if d <= 0 {
		return fmt.Errorf("simtime: lookahead %v must be positive (a zero-delay cross-domain edge admits no conservative window)", d)
	}
	ss.lookahead = d
	return nil
}

// SetWorkers bounds how many executor goroutines advance domains inside
// a window: the caller's goroutine plus n-1 helpers. 1 (the default)
// runs every domain on the caller's goroutine; values above the domain
// count are clamped. The setting has no effect on results — only on
// wall-clock.
func (ss *ShardedSim) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	if n > len(ss.domains) {
		n = len(ss.domains)
	}
	ss.workers = n
}

// occupancyBounds is the power-of-two ladder for the window-occupancy
// histogram (events one domain executed in one window): 1, 2, 4, ...,
// 1Mi. Occupancy is a count, not a duration, so the default duration
// ladder would misbin it.
var occupancyBounds = func() []int64 {
	b := make([]int64, 21)
	for i := range b {
		b[i] = 1 << i
	}
	return b
}()

// Instrument registers per-domain executed-event counters, a window
// counter, a cross-message counter, and the barrier-stall histogram
// (wall time each domain spends waiting at the barrier for the window's
// slowest domain; recorded only when executors run in parallel) under
// "simtime.shard.". It also switches on per-domain wall-clock
// attribution: busy/blocked/idle gauges per domain, a window-occupancy
// histogram (events per domain-window), the live sim clock gauge
// simtime.shard.now_ns, and — when reg has a flight recorder — window
// and barrier-wait timeline events. Telemetry observes and never
// perturbs — instruments are atomic and touch no simulation state, so
// results are byte-identical with instrumentation on or off.
func (ss *ShardedSim) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	ss.cEvents = make([]*obs.Counter, len(ss.domains))
	ss.gBusy = make([]*obs.Gauge, len(ss.domains))
	ss.gBlocked = make([]*obs.Gauge, len(ss.domains))
	ss.gIdle = make([]*obs.Gauge, len(ss.domains))
	for i := range ss.domains {
		ss.cEvents[i] = reg.Counter(fmt.Sprintf("simtime.shard.d%02d.events", i))
		ss.gBusy[i] = reg.Gauge(fmt.Sprintf("simtime.shard.d%02d.busy_ns", i))
		ss.gBlocked[i] = reg.Gauge(fmt.Sprintf("simtime.shard.d%02d.blocked_ns", i))
		ss.gIdle[i] = reg.Gauge(fmt.Sprintf("simtime.shard.d%02d.idle_ns", i))
	}
	ss.cWindows = reg.Counter("simtime.shard.windows")
	ss.cPosted = reg.Counter("simtime.shard.cross_msgs")
	ss.hStall = reg.Histogram("simtime.shard.barrier_stall_ns", obs.ClockWall)
	ss.hOccupancy = reg.HistogramWithBounds("simtime.shard.window_events", obs.ClockNone, occupancyBounds)
	ss.gNow = reg.Gauge("simtime.shard.now_ns")
	ss.flight = reg.Flight()
	ss.attrib = make([]DomainAttribution, len(ss.domains))
	for i := range ss.attrib {
		ss.attrib[i].Domain = i
	}
}

// Attribution returns a copy of the per-domain wall-clock profile
// accumulated since Instrument. Nil when the coordinator is not
// instrumented — attribution costs two clock reads per domain-window,
// so the uninstrumented window loop stays clock-free.
func (ss *ShardedSim) Attribution() []DomainAttribution {
	if ss.attrib == nil {
		return nil
	}
	out := make([]DomainAttribution, len(ss.attrib))
	copy(out, ss.attrib)
	return out
}

// publishAttribution mirrors the accumulated attribution into the live
// gauges after a window: idle is everything since the run's first
// window that was neither executing events nor blocked at the barrier.
func (ss *ShardedSim) publishAttribution() {
	elapsed := time.Since(ss.runStart)
	for i := range ss.attrib {
		a := &ss.attrib[i]
		ss.gBusy[i].Set(int64(a.Busy))
		ss.gBlocked[i].Set(int64(a.Blocked))
		idle := elapsed - a.Busy - a.Blocked
		if idle < 0 {
			idle = 0
		}
		ss.gIdle[i].Set(int64(idle))
	}
}

// SetInterrupt installs the cancellation check on every domain (see
// Sim.SetInterrupt). The check may run on executor goroutines and must
// be goroutine-safe.
func (ss *ShardedSim) SetInterrupt(check func() error) {
	for _, d := range ss.domains {
		d.SetInterrupt(check)
	}
}

// Interrupted returns the first domain's interrupt error (lowest domain
// index wins, deterministically), or nil.
func (ss *ShardedSim) Interrupted() error {
	for _, d := range ss.domains {
		if err := d.Interrupted(); err != nil {
			return err
		}
	}
	return nil
}

// Post enqueues a cross-domain delivery: fn runs in domain dst at time
// at. It must be called from domain src's executing context (its send
// time is src's current virtual time), and at must respect the
// lookahead contract at >= now(src) + lookahead — netsim guarantees this
// by construction because cross-domain handoff happens only at Link
// boundaries whose propagation delay is at least the lookahead. A
// violation is a wiring bug and panics.
func (ss *ShardedSim) Post(src, dst int, at Time, fn func()) {
	sent := ss.domains[src].Now()
	if at < sent+ss.lookahead {
		panic(fmt.Sprintf("simtime: cross-domain post d%d->d%d at %v violates lookahead (sent %v + lookahead %v)",
			src, dst, at, sent, ss.lookahead))
	}
	ss.mail[src][dst] = append(ss.mail[src][dst], shardMsg{
		at: at, sent: sent, src: src, idx: ss.mailIdx[src][dst], fn: fn,
	})
	ss.mailIdx[src][dst]++
}

// nextEventTime returns the earliest live event time across domains.
func (ss *ShardedSim) nextEventTime() (Time, bool) {
	var best Time
	ok := false
	for _, d := range ss.domains {
		if at, has := d.NextEventTime(); has && (!ok || at < best) {
			best, ok = at, true
		}
	}
	return best, ok
}

// Run executes events until every domain's queue is empty. It returns
// the number of events executed during this call.
func (ss *ShardedSim) Run() uint64 { return ss.RunUntil(maxTime) }

// RunUntil executes events with time <= deadline in every domain, then
// advances the global clock (and every domain clock) to deadline, so
// repeated calls form contiguous windows exactly like Sim.RunUntil. It
// returns the number of events executed during this call.
func (ss *ShardedSim) RunUntil(deadline Time) uint64 {
	if len(ss.domains) == 1 {
		// One domain is a plain simulation; no windows, no barriers.
		n := ss.domains[0].RunUntil(deadline)
		ss.now = ss.domains[0].Now()
		ss.gNow.Set(int64(ss.now))
		return n
	}
	if ss.lookahead <= 0 {
		panic("simtime: ShardedSim.RunUntil before SetLookahead (wire cross-domain links through a Fabric and finalize it)")
	}
	var n uint64
	for ss.Interrupted() == nil {
		// Mailboxes are always drained between windows, so all pending
		// work lives in domain heaps: idle gaps can be skipped exactly.
		next, ok := ss.nextEventTime()
		if !ok || next > deadline {
			break
		}
		if next > ss.now {
			ss.now = next
		}
		runTo := ss.now + ss.lookahead - 1 // window [now, now+lookahead)
		if runTo > deadline {
			runTo = deadline
		}
		n += ss.runWindow(runTo)
		ss.drainMail()
		ss.windows++
		ss.cWindows.Inc()
		ss.now = runTo + 1
		ss.gNow.Set(int64(ss.now))
	}
	if deadline < maxTime && ss.Interrupted() == nil {
		for _, d := range ss.domains {
			if d.Now() < deadline {
				d.RunUntil(deadline) // advances the clock; nothing <= deadline remains
			}
		}
		// The loop leaves now one past the last window's end (<= deadline+1);
		// report the Sim-compatible "advanced to deadline" clock. The next
		// call's fast-forward skips straight to the first live event, so a
		// window nominally restarting at deadline re-executes nothing.
		ss.now = deadline
	}
	return n
}

// runWindow advances every domain to runTo, in parallel when more than
// one worker is configured. Per-domain event totals are accumulated into
// the telemetry counters either way; with attribution on (Instrument was
// called), each domain-window also charges busy and — in parallel —
// barrier-blocked wall time and emits flight timeline events. All of it
// is observation only — the uninstrumented loop performs no clock reads.
func (ss *ShardedSim) runWindow(runTo Time) uint64 {
	if ss.attrib != nil && ss.runStart.IsZero() {
		ss.runStart = time.Now()
	}
	parallel := ss.workers > 1
	if parallel {
		ss.runParallel(runTo)
	} else {
		for i := range ss.domains {
			ss.runDomain(i, runTo)
		}
	}
	var n uint64
	for _, en := range ss.windowCounts {
		n += en
	}
	if ss.attrib == nil {
		return n
	}
	// Barrier stall: wall time each domain idled waiting for the window's
	// slowest domain. Telemetry only — never feeds back into results.
	var last time.Time
	if parallel {
		for _, f := range ss.finished {
			if f.After(last) {
				last = f
			}
		}
	}
	winBase := int64(ss.now)
	for i, en := range ss.windowCounts {
		busy := ss.finished[i].Sub(ss.started[i])
		var stall time.Duration
		if parallel {
			stall = last.Sub(ss.finished[i])
			ss.hStall.Observe(int64(stall))
		}
		a := &ss.attrib[i]
		a.Events += en
		a.Windows++
		a.Busy += busy
		a.Blocked += stall
		ss.hOccupancy.Observe(int64(en))
		if en > 0 {
			ss.flight.RecordSpan(obs.FlightWindow, int32(i), ss.started[i], busy, winBase, int64(en), "")
		}
		if stall > 0 {
			ss.flight.RecordSpan(obs.FlightBarrierWait, int32(i), ss.finished[i], stall, winBase, 0, "")
		}
	}
	ss.publishAttribution()
	return n
}

// runDomain advances domain i to runTo on the calling executor and
// records its event count and, when instrumented, its busy interval.
func (ss *ShardedSim) runDomain(i int, runTo Time) {
	if ss.attrib != nil {
		ss.started[i] = time.Now()
	}
	en := ss.domains[i].RunUntil(runTo)
	ss.windowCounts[i] = en
	ss.cEvents[i].Add(en)
	if ss.attrib != nil {
		ss.finished[i] = time.Now()
	}
}

// helperSpins is how many times an idle helper yields while polling for
// the next window before it parks. Windows are microseconds apart in a
// busy run, so a helper that spins through the coordinator's serial
// stretch (merge, fast-forward) joins the next window without a wake-up;
// one idle for longer parks and costs nothing.
const helperSpins = 256

// helper is one parallel executor besides the coordinator. parked is set
// while it sleeps on wake; whoever clears it owns the wake-up, so each
// park is paired with at most one token and wake never fills.
type helper struct {
	parked atomic.Bool
	wake   chan struct{}
}

// runParallel runs one window on the coordinator and its helpers: the
// coordinator publishes the window, wakes parked helpers, claims domains
// like any helper, then yields until every domain is counted done.
func (ss *ShardedSim) runParallel(runTo Time) {
	if ss.helpers == nil && !ss.quit.Load() {
		for w := 1; w < ss.workers; w++ {
			h := &helper{wake: make(chan struct{}, 1)}
			ss.helpers = append(ss.helpers, h)
			ss.exited.Add(1)
			go ss.help(h, ss.epoch.Load())
		}
	}
	ss.target = runTo
	// done is zeroed before next reopens: a helper still claiming from
	// the last window takes domain 0 the moment next is reset, and its
	// completion must count towards this window.
	ss.done.Store(0)
	ss.next.Store(0)
	ss.epoch.Add(1)
	ss.wakeHelpers()
	ss.claim()
	for ss.done.Load() < int64(len(ss.domains)) {
		runtime.Gosched()
	}
}

// claim runs unclaimed domains of the current window until none remain.
// target is read only after a successful claim, whose counter load
// orders it after the coordinator's publish.
func (ss *ShardedSim) claim() {
	for {
		i := int(ss.next.Add(1) - 1)
		if i >= len(ss.domains) {
			return
		}
		ss.runDomain(i, ss.target)
		ss.done.Add(1)
	}
}

// wakeHelpers hands a wake-up token to every parked helper.
func (ss *ShardedSim) wakeHelpers() {
	for _, h := range ss.helpers {
		if h.parked.CompareAndSwap(true, false) {
			h.wake <- struct{}{}
		}
	}
}

// help is a helper's loop: wait for an epoch past seen, spinning for
// helperSpins yields and then parking, claim domains, repeat until quit.
// seen is read before the helper starts, so no epoch bump, not even
// Close's, can pass unnoticed while the goroutine is being scheduled.
func (ss *ShardedSim) help(h *helper, seen uint64) {
	defer ss.exited.Done()
	for {
		e := ss.epoch.Load()
		for spin := 0; e == seen && spin < helperSpins; spin++ {
			runtime.Gosched()
			e = ss.epoch.Load()
		}
		if e == seen {
			// Park, then look again: a window published before parked
			// was set must not be slept through. If the coordinator
			// cleared parked first, its token is on the way.
			h.parked.Store(true)
			if e = ss.epoch.Load(); e == seen || !h.parked.CompareAndSwap(true, false) {
				<-h.wake
				e = ss.epoch.Load()
			}
		}
		seen = e
		if ss.quit.Load() {
			return
		}
		ss.claim()
	}
}

// Close stops the helpers and waits for them to exit. Safe to call
// multiple times and on a coordinator that never went parallel.
func (ss *ShardedSim) Close() {
	if ss.quit.Swap(true) {
		return
	}
	ss.epoch.Add(1)
	ss.wakeHelpers()
	ss.exited.Wait()
}

// drainMail moves every buffered cross-domain message into its
// destination heap, in the fixed merge order (at, sent, src, idx): by
// delivery time first; equal-time deliveries replay in virtual send
// order, then by source domain, then by per-pair send ordinal. The order
// is a strict total order (src, idx is unique), so the merged schedule —
// and therefore each destination's (time, seq) event order — is
// identical for every executor count.
func (ss *ShardedSim) drainMail() {
	for dst := range ss.domains {
		ss.merged = ss.merged[:0]
		for src := range ss.domains {
			buf := ss.mail[src][dst]
			if len(buf) == 0 {
				continue
			}
			ss.merged = append(ss.merged, buf...)
			ss.mail[src][dst] = buf[:0]
		}
		if len(ss.merged) == 0 {
			continue
		}
		slices.SortFunc(ss.merged, compareShardMsg)
		dom := ss.domains[dst]
		for i := range ss.merged {
			m := &ss.merged[i]
			if _, err := dom.ScheduleAt(m.at, m.fn); err != nil {
				panic(fmt.Sprintf("simtime: cross-domain delivery into d%d at %v rejected: %v", dst, m.at, err))
			}
			m.fn = nil
		}
		ss.posted += uint64(len(ss.merged))
		ss.cPosted.Add(uint64(len(ss.merged)))
	}
}

// compareShardMsg orders cross-domain deliveries by (at, sent, src, idx).
func compareShardMsg(a, b shardMsg) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.sent, b.sent); c != 0 {
		return c
	}
	if c := cmp.Compare(a.src, b.src); c != 0 {
		return c
	}
	return cmp.Compare(a.idx, b.idx)
}
