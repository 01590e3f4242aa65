package simtime

import "fmt"

// series is NewSeries's event source: like a Lane it keeps only its
// next item in the heap, through one slab slot it re-pushes, but its
// items are computed rather than stored.
type series struct {
	sim        *Sim
	run        func(int)
	start, gap Time
	seq0       uint64 // tie-break seq of item 0; item i has seq0+i
	next, n    int    // next item to fire, item count
	slot       int32
}

// NewSeries schedules run(i) at start + i·gap for each i in [0, n), and
// holds nothing per item: whatever run(i) needs is built when item i
// fires, so an item the run never reaches costs nothing.
//
// NewSeries reserves the n tie-break sequence numbers that n Lane.Push
// calls would take at the same point, so item i runs with exactly the
// (at, seq) key its own push would have had, and pop order is unchanged
// by construction. Re-scheduling item i from item i-1's handler with
// ScheduleAt would instead take a fresh seq when item i-1 fires, and
// run item i after every event scheduled for the same time in between.
//
// Each item counts as one executed event in Processed. Items cannot be
// cancelled. n <= 0 schedules nothing; otherwise NewSeries panics when
// start is before the current time or gap is negative.
func NewSeries(s *Sim, start, gap Time, n int, run func(i int)) {
	if n <= 0 {
		return
	}
	if start < s.now {
		panic(fmt.Sprintf("simtime: series start=%v before now=%v", start, s.now))
	}
	if gap < 0 {
		panic(fmt.Sprintf("simtime: series gap=%v is negative", gap))
	}
	x := &series{sim: s, run: run, start: start, gap: gap, seq0: s.seq + 1, n: n}
	s.seq += uint64(n)
	x.slot = s.newSlot(x.fire)
	x.keepSlot()
	s.push(entry{at: start, seq: x.seq0, slot: x.slot})
}

// keepSlot keeps the slot from release while an item after the one in
// the heap remains; the last item's pop recycles it like any event's.
func (x *series) keepSlot() { x.sim.slots[x.slot].keep = x.next+1 < x.n }

// fire runs the next item, first pushing the slot for the one after it.
func (x *series) fire() {
	i := x.next
	x.next++
	if x.next < x.n {
		x.keepSlot()
		x.sim.push(entry{at: x.start + Time(x.next)*x.gap, seq: x.seq0 + uint64(x.next), slot: x.slot})
	}
	x.run(i)
}
