// Package simtime provides the deterministic discrete-event simulation
// kernel that every substrate in this repository runs on: a virtual clock,
// an event heap ordered by (time, sequence), lanes that feed it one
// monotone event source at a time (see lane.go), and named deterministic
// random streams.
//
// Each Sim is deliberately single-threaded. Determinism is a design goal
// of the evaluation methodology this repository reproduces — the paper's
// scorecard requires "observable, reproducible, quantifiable" metrics, and
// a virtual-time simulation with seedable RNG streams makes every
// experiment exactly repeatable. Parallelism in the modeled systems (for
// example multiple IDS sensors) is expressed as capacity inside the model;
// parallelism in the measurement harness happens across independent
// simulations, each owning its own Sim — and, for one large topology,
// across the fixed event domains of a ShardedSim (see sharded.go), which
// advances many Sims in lockstep conservative lookahead windows while
// keeping results byte-identical for any executor count.
package simtime

import (
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// Time is virtual time measured from the start of the simulation.
// It is a time.Duration so that the arithmetic and formatting of the
// standard library apply directly.
type Time = time.Duration

// Handler is a scheduled action. It runs at its scheduled virtual time.
type Handler func()

// entry is one element of the pending-event heap: the event's (at, seq)
// key and the slab slot that holds its handler. It holds no pointers, so
// the heap's sifts move plain words and compare keys without leaving the
// heap array; the GC write barrier, which a concurrent evaluation keeps
// switched on for much of a run, never fires on them.
type entry struct {
	at   Time
	seq  uint64 // tie-break so equal-time events run in schedule order
	slot int32  // index into Sim.slots
}

func (a entry) less(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// event is one slot of the Sim's handler slab. A popped or cancelled
// event's slot is recycled through the Sim's free list, so a high-rate
// simulation reuses a small slab instead of allocating per scheduled
// action; gen distinguishes incarnations so a stale EventID can never
// cancel the slot's next occupant.
type event struct {
	fn   Handler
	gen  uint64 // bumped when the slot is released
	dead bool   // cancelled
	keep bool   // owned by a Lane, which re-pushes it; never recycled
}

// EventID identifies a scheduled event so it can be cancelled. It pins
// the event's slot (plus one, so the zero EventID names nothing) and
// incarnation, so an ID held across the event's execution stays a safe
// no-op even after the slot is recycled.
type EventID struct {
	slot int32
	gen  uint64
}

// Sim is a discrete-event simulation: a virtual clock plus a pending-event
// queue. The zero value is not usable; create one with New.
type Sim struct {
	now Time
	seq uint64
	// pending is a hand-rolled 4-ary min-heap of entries ordered by
	// (at, seq). The ordering is a strict total order (seq is unique),
	// so the pop sequence is the sorted sequence regardless of heap
	// arity or implementation — switching heap internals can never
	// change simulation behaviour. The 4-ary layout halves the tree
	// depth of a binary heap. Every write to it goes through the field
	// itself (s.pending = append(s.pending, x), s.pending =
	// s.pending[:n]), which the compiler lowers to a length store; a
	// local copy written back would store the array pointer too.
	pending []entry
	// slots is the handler slab that entries and lanes index. It grows,
	// so a pointer into it must not be held across a call that can
	// schedule.
	slots []event
	// free recycles released slots for reuse by ScheduleAt; its size is
	// bounded by the peak pending-event count.
	free    []int32
	streams map[string]*rand.Rand
	seed    int64
	running bool
	// Processed counts events executed since creation; useful both for
	// progress accounting and for loop-detection limits in tests.
	processed uint64
	// interrupt, when set, is consulted about every interruptStride
	// executed events during Run/RunUntil; a non-nil return halts the
	// run (see SetInterrupt).
	interrupt func() error
	intErr    error
}

// interruptStride is how many executed events pass between interrupt
// checks. The check is read-only with respect to simulation state (it
// never touches a random stream or the event heap), so as long as it
// keeps returning nil the simulation is bit-identical to one with no
// interrupt installed; the stride only bounds cancellation latency.
const interruptStride = 1024

// New creates a simulation whose random streams derive from seed.
func New(seed int64) *Sim {
	return &Sim{
		streams: make(map[string]*rand.Rand),
		seed:    seed,
	}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Seed returns the root seed the simulation was created with.
func (s *Sim) Seed() int64 { return s.seed }

// Processed returns the number of events executed so far.
func (s *Sim) Processed() uint64 { return s.processed }

// NextEventTime returns the virtual time of the earliest live pending
// event. Cancelled events at the head of the heap are retired in
// passing (they are observably gone already), so the returned time is
// exact, not a stale lower bound. ok is false when nothing is pending.
func (s *Sim) NextEventTime() (at Time, ok bool) {
	for len(s.pending) > 0 {
		head := s.pending[0]
		if s.slots[head.slot].dead {
			s.popMin()
			s.release(head.slot)
			continue
		}
		return head.at, true
	}
	return 0, false
}

// push inserts x into the pending heap.
func (s *Sim) push(x entry) {
	s.pending = append(s.pending, x)
	h := s.pending
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !x.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// popMin removes the earliest entry; the caller has already read it at
// s.pending[0].
func (s *Sim) popMin() {
	n := len(s.pending) - 1
	last := s.pending[n]
	s.pending = s.pending[:n]
	if n > 0 {
		s.siftDown(last)
	}
}

// siftDown sinks x from the hole at the root to its heap position.
func (s *Sim) siftDown(x entry) {
	h := s.pending
	n := len(h)
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := min(c+4, n)
		for j := c + 1; j < end; j++ {
			if h[j].less(h[m]) {
				m = j
			}
		}
		if !h[m].less(x) {
			break
		}
		h[i] = h[m]
		i = m
	}
	h[i] = x
}

// newSlot takes a free slab slot for fn, growing the slab when none is
// free. A recycled slot keeps its bumped gen.
func (s *Sim) newSlot(fn Handler) int32 {
	if n := len(s.free); n > 0 {
		i := s.free[n-1]
		s.free = s.free[:n-1]
		s.slots[i].fn = fn
		return i
	}
	s.slots = append(s.slots, event{fn: fn})
	return int32(len(s.slots) - 1)
}

// ErrPastTime is returned by ScheduleAt when the requested time is before
// the current virtual time.
var ErrPastTime = errors.New("simtime: schedule time is in the past")

// Schedule runs fn after delay of virtual time. A negative delay is an
// error; a zero delay runs fn after all events already scheduled for the
// current instant.
func (s *Sim) Schedule(delay Time, fn Handler) (EventID, error) {
	if delay < 0 {
		return EventID{}, fmt.Errorf("simtime: negative delay %v: %w", delay, ErrPastTime)
	}
	return s.ScheduleAt(s.now+delay, fn)
}

// MustSchedule is Schedule for callers that know delay is non-negative.
// It panics on error, which in a deterministic simulation indicates a
// programming bug rather than an environmental failure.
func (s *Sim) MustSchedule(delay Time, fn Handler) EventID {
	id, err := s.Schedule(delay, fn)
	if err != nil {
		panic(err)
	}
	return id
}

// ScheduleAt runs fn at absolute virtual time at.
func (s *Sim) ScheduleAt(at Time, fn Handler) (EventID, error) {
	if at < s.now {
		return EventID{}, fmt.Errorf("simtime: at=%v now=%v: %w", at, s.now, ErrPastTime)
	}
	if fn == nil {
		return EventID{}, errors.New("simtime: nil handler")
	}
	s.seq++
	i := s.newSlot(fn)
	s.push(entry{at: at, seq: s.seq, slot: i})
	return EventID{slot: i + 1, gen: s.slots[i].gen}, nil
}

// release returns a popped event's slot to the free list, retiring
// every EventID issued for its current incarnation. It runs before the
// event's handler, so an event is pending exactly while its ID's gen
// matches. A lane's slot stays with its lane.
func (s *Sim) release(i int32) {
	e := &s.slots[i]
	if e.keep {
		return
	}
	e.fn = nil
	e.dead = false
	e.gen++
	s.free = append(s.free, i)
}

// Cancel removes a scheduled event. Cancelling an already-run or
// already-cancelled event is a no-op and reports false.
func (s *Sim) Cancel(id EventID) bool {
	i := int(id.slot) - 1
	if i < 0 || i >= len(s.slots) {
		return false
	}
	e := &s.slots[i]
	if e.gen != id.gen || e.dead || e.keep {
		return false
	}
	e.dead = true
	return true
}

// Run executes events until the queue is empty or an interrupt halts
// the run (see SetInterrupt). It returns the number of events executed.
func (s *Sim) Run() uint64 {
	return s.RunUntil(1<<62 - 1)
}

// RunUntil executes events with time <= deadline, then advances the clock
// to deadline (if the simulation got that far without emptying early it
// still advances, so repeated RunUntil calls form contiguous windows).
// It returns the number of events executed during this call.
func (s *Sim) RunUntil(deadline Time) uint64 {
	if s.running {
		panic("simtime: RunUntil re-entered from inside an event handler")
	}
	if s.intErr != nil {
		return 0
	}
	s.running = true
	defer func() { s.running = false }()

	var n uint64
	for len(s.pending) > 0 {
		// The stride counts events executed during THIS call (not the
		// lifetime total), so the first check fires on entry and every
		// call's cancellation latency is bounded by one stride — a
		// windowed RunUntil resumed mid-stride can never inherit a
		// nearly-elapsed stride from the previous window.
		if s.interrupt != nil && n%interruptStride == 0 {
			if err := s.interrupt(); err != nil {
				s.intErr = err
				break
			}
		}
		next := s.pending[0]
		e := &s.slots[next.slot]
		if e.dead {
			s.popMin()
			s.release(next.slot)
			continue
		}
		if next.at > deadline {
			break
		}
		s.popMin()
		s.now = next.at
		s.processed++
		fn := e.fn
		s.release(next.slot)
		fn()
		n++
	}
	if s.intErr == nil && s.now < deadline && deadline < 1<<62-1 {
		s.now = deadline
	}
	return n
}

// SetInterrupt installs a cancellation check consulted about every
// interruptStride executed events during Run/RunUntil. When check
// returns a non-nil error the run halts where it stands, the error is
// retained, and every later Run/RunUntil returns immediately; callers
// observe the abort through Interrupted. A nil check uninstalls.
//
// The check runs on the simulation's own goroutine and must be cheap
// and side-effect-free with respect to simulation state: the intended
// use is ctx.Err plus a wall-clock heartbeat for an external watchdog.
// While check returns nil the simulation's behaviour is bit-identical
// to one with no interrupt installed.
func (s *Sim) SetInterrupt(check func() error) { s.interrupt = check }

// Interrupted returns the error that halted the simulation via the
// interrupt check, or nil if no interrupt has fired. Once set it stays
// set: an interrupted simulation's partial state is not a valid
// experiment result and must not be scored.
func (s *Sim) Interrupted() error { return s.intErr }

// Stream returns the named deterministic random stream, creating it on
// first use. Distinct names give independent streams; the same (seed, name)
// pair always yields the same sequence, so adding a new consumer of
// randomness does not perturb existing ones.
func (s *Sim) Stream(name string) *rand.Rand {
	r, ok := s.streams[name]
	if !ok {
		r = rand.New(rand.NewSource(s.seed ^ hashName(name)))
		s.streams[name] = r
	}
	return r
}

// hashName is FNV-1a, inlined to avoid importing hash/fnv for eight lines.
func hashName(name string) int64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h uint64 = offset64
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= prime64
	}
	return int64(h)
}

// Ticker repeatedly schedules a handler at a fixed virtual-time period
// until stopped. Unlike time.Ticker it is driven entirely by the Sim.
type Ticker struct {
	sim    *Sim
	period Time
	fn     Handler
	tick   Handler // t.fire, bound once so re-arming allocates nothing
	id     EventID
	live   bool
}

// NewTicker starts a ticker whose first tick fires one period from now.
// period must be positive.
func (s *Sim) NewTicker(period Time, fn Handler) (*Ticker, error) {
	if period <= 0 {
		return nil, fmt.Errorf("simtime: ticker period %v must be positive", period)
	}
	t := &Ticker{sim: s, period: period, fn: fn, live: true}
	t.tick = t.fire
	t.arm()
	return t, nil
}

func (t *Ticker) arm() { t.id = t.sim.MustSchedule(t.period, t.tick) }

func (t *Ticker) fire() {
	if !t.live {
		return
	}
	t.fn()
	if t.live {
		t.arm()
	}
}

// Stop prevents future ticks. It is idempotent.
func (t *Ticker) Stop() {
	if !t.live {
		return
	}
	t.live = false
	t.sim.Cancel(t.id)
}
