package simtime

import "fmt"

// Lane is a FIFO of future events whose times never decrease: the shape
// of every per-packet scheduler in the substrate (a session's planned
// packets, a probe's feed, a switch's forwarding delay). Scheduling each
// item with ScheduleAt would put one heap entry and one closure per
// item in flight; a lane keeps only its head in the Sim's heap, through
// one event the lane owns and re-pushes, and hands each item to a
// handler bound once at construction.
//
// A lane changes no event order. Push takes the item's tie-break
// sequence number at push time, exactly as ScheduleAt does, so every
// item carries the key it would have had as its own event. Item k+1
// enters the heap when item k pops; because key(k) < key(k+1), no key
// between the two has popped yet, so the heap still yields the strict
// (at, seq) order. Each item counts as one executed event in Processed.
//
// Lane items cannot be cancelled. A Lane must not be copied.
type Lane[T any] struct {
	sim   *Sim
	run   func(T)
	ev    event // in the heap, keyed by items[head], while the lane is non-empty
	items []laneItem[T]
	head  int
	tail  Time // time of the last push
}

type laneItem[T any] struct {
	at  Time
	seq uint64
	v   T
}

// NewLane creates an empty lane on s that hands each item to run at the
// item's time.
func NewLane[T any](s *Sim, run func(T)) *Lane[T] {
	l := &Lane[T]{sim: s, run: run}
	l.ev.keep = true
	l.ev.fn = l.fire
	return l
}

// Push schedules v for time at. It panics when at is before the current
// time or before the lane's last push, since either would break the
// FIFO order the lane relies on.
func (l *Lane[T]) Push(at Time, v T) {
	s := l.sim
	if at < s.now {
		panic(fmt.Sprintf("simtime: lane push at=%v before now=%v", at, s.now))
	}
	if at < l.tail {
		panic(fmt.Sprintf("simtime: lane push at=%v before lane tail=%v", at, l.tail))
	}
	s.seq++
	l.tail = at
	if l.head == len(l.items) {
		l.ev.at, l.ev.seq = at, s.seq
		s.pending.push(&l.ev)
	} else if len(l.items) == cap(l.items) && l.head > 0 {
		// Reclaim the fired prefix before append would grow the array.
		n := copy(l.items, l.items[l.head:])
		clear(l.items[n:])
		l.items = l.items[:n]
		l.head = 0
	}
	l.items = append(l.items, laneItem[T]{at: at, seq: s.seq, v: v})
}

// Len returns the number of items not yet run.
func (l *Lane[T]) Len() int { return len(l.items) - l.head }

// Tail returns the time of the lane's last push: the earliest time the
// next Push may use.
func (l *Lane[T]) Tail() Time { return l.tail }

// fire runs the head item, first re-pushing the lane's event for the
// next one so a handler that pushes onto this lane sees it consistent.
func (l *Lane[T]) fire() {
	v := l.items[l.head].v
	l.items[l.head] = laneItem[T]{}
	l.head++
	if l.head == len(l.items) {
		l.items = l.items[:0]
		l.head = 0
	} else {
		next := &l.items[l.head]
		l.ev.at, l.ev.seq = next.at, next.seq
		l.sim.pending.push(&l.ev)
	}
	l.run(v)
}
