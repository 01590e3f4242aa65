package simtime

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// world is one executor of a kernel program: the real Sim, or the
// brute-force oracle below.
type world interface {
	now() Time
	schedule(at Time, id int)
	push(lane int, at Time, id int)
	series(start, gap Time, n, first int)
	cancel(id int) bool
	run()
	laneViews() []laneView
}

// laneView is what a lane shows its readers: its tail and its items not
// yet run, next first.
type laneView struct {
	tail  Time
	items []int
}

// program is a random mix of ScheduleAt, lane pushes, series and Cancel
// calls (stale IDs included), where every executed event issues more of
// the same. An event's follow-up work depends only on the seed and the
// event's id, so two worlds run the same program for as long as they
// execute the same ids in the same order.
type program struct {
	seed    int64
	budget  int    // events issued at most
	tails   []Time // last push per lane
	issued  int
	sched   []int // ids issued by ScheduleAt: the Cancel targets
	log     []int // executed ids, in order
	cancels []bool
	views   []laneView // every lane as each executed event found it
}

func newProgram(seed int64) *program {
	return &program{seed: seed, budget: 400, tails: make([]Time, 3)}
}

// splitmix is splitmix64: seeding one per executed event is free, where
// a math/rand source costs a 5 KB allocation.
type splitmix uint64

func (r *splitmix) Intn(n int) int {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int((z ^ z>>31) % uint64(n))
}

func (p *program) ops(w world, r *splitmix, n int) {
	for i := 0; i < n && p.issued < p.budget; i++ {
		switch k := r.Intn(12); {
		case k < 4:
			id := p.issued
			p.issued++
			p.sched = append(p.sched, id)
			// Small time steps make equal-time ties common.
			w.schedule(w.now()+Time(r.Intn(4)), id)
		case k < 8:
			j := r.Intn(len(p.tails))
			at := max(w.now(), p.tails[j]) + Time(r.Intn(3))
			p.tails[j] = at
			id := p.issued
			p.issued++
			w.push(j, at, id)
		case k < 10:
			// Series of 0, 1 and many items, starting now or soon,
			// with gaps of 0 included.
			n := r.Intn(3)
			if n == 2 {
				n += r.Intn(30)
			}
			start, gap := w.now()+Time(r.Intn(3)), Time(r.Intn(3))
			id := p.issued
			p.issued += n
			w.series(start, gap, n, id)
		default:
			if len(p.sched) > 0 {
				p.cancels = append(p.cancels, w.cancel(p.sched[r.Intn(len(p.sched))]))
			}
		}
	}
}

func (p *program) start(w world) {
	r := splitmix(p.seed)
	p.ops(w, &r, 30)
}

func (p *program) exec(w world, id int) {
	p.log = append(p.log, id)
	p.views = append(p.views, w.laneViews()...)
	r := splitmix(p.seed<<32 | int64(id))
	p.ops(w, &r, r.Intn(4))
}

type kernelWorld struct {
	p     *program
	s     *Sim
	ids   map[int]EventID
	lanes []*Lane[int]
}

func newKernelWorld(p *program) *kernelWorld {
	w := &kernelWorld{p: p, s: New(1), ids: make(map[int]EventID)}
	for range p.tails {
		w.lanes = append(w.lanes, NewLane(w.s, func(id int) { p.exec(w, id) }))
	}
	return w
}

func (w *kernelWorld) now() Time { return w.s.Now() }

func (w *kernelWorld) schedule(at Time, id int) {
	eid, err := w.s.ScheduleAt(at, func() { w.p.exec(w, id) })
	if err != nil {
		panic(err)
	}
	w.ids[id] = eid
}

func (w *kernelWorld) push(lane int, at Time, id int) { w.lanes[lane].Push(at, id) }
func (w *kernelWorld) cancel(id int) bool             { return w.s.Cancel(w.ids[id]) }
func (w *kernelWorld) run()                           { w.s.Run() }

func (w *kernelWorld) series(start, gap Time, n, first int) {
	NewSeries(w.s, start, gap, n, func(i int) { w.p.exec(w, first+i) })
}

func (w *kernelWorld) laneViews() []laneView {
	views := make([]laneView, len(w.lanes))
	for j, l := range w.lanes {
		views[j].tail = l.Tail()
		for i := 0; i < l.Len(); i++ {
			views[j].items = append(views[j].items, l.At(i))
		}
	}
	return views
}

// oracleWorld keeps every event ever issued and runs the pending one
// with the least (at, seq) by linear scan. Lane items are plain events
// whose seq is taken at push time, also listed by lane; a series is n
// plain events whose seqs are all taken when it is created.
type oracleWorld struct {
	p      *program
	t      Time
	seq    uint64
	evs    []oracleEvent // indexed by id
	pushes [][]int       // ids pushed onto each lane, in seq order
}

type oracleEvent struct {
	at        Time
	seq       uint64
	cancelled bool
	done      bool
}

func (w *oracleWorld) now() Time { return w.t }

func (w *oracleWorld) schedule(at Time, id int) {
	w.seq++
	w.evs = append(w.evs, oracleEvent{at: at, seq: w.seq})
}

func (w *oracleWorld) push(lane int, at Time, id int) {
	w.schedule(at, id)
	w.pushes[lane] = append(w.pushes[lane], id)
}

// laneViews reads each lane off its pushes: its tail is the time of its
// last push, and its items are its pushes not yet run, in seq order.
func (w *oracleWorld) laneViews() []laneView {
	views := make([]laneView, len(w.pushes))
	for j, ids := range w.pushes {
		for _, id := range ids {
			views[j].tail = w.evs[id].at
			if !w.evs[id].done {
				views[j].items = append(views[j].items, id)
			}
		}
	}
	return views
}

func (w *oracleWorld) series(start, gap Time, n, first int) {
	for i := 0; i < n; i++ {
		w.schedule(start+Time(i)*gap, first+i)
	}
}

func (w *oracleWorld) cancel(id int) bool {
	e := &w.evs[id]
	if e.cancelled || e.done {
		return false
	}
	e.cancelled = true
	return true
}

func (w *oracleWorld) run() {
	for {
		best := -1
		for i, e := range w.evs {
			if e.cancelled || e.done {
				continue
			}
			if best < 0 || e.at < w.evs[best].at || (e.at == w.evs[best].at && e.seq < w.evs[best].seq) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		w.evs[best].done = true
		w.t = w.evs[best].at
		w.p.exec(w, best)
	}
}

// TestPropertyKernelMatchesOracle runs random programs on the kernel and
// on a brute-force oracle that sorts every (at, seq), series included:
// the executed ids, every Cancel result, the final clock and Processed
// must all agree, and so must every lane's Tail, Len and items (At) as
// each executed event's handler reads them.
func TestPropertyKernelMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		kp, op := newProgram(seed), newProgram(seed)
		kw, ow := newKernelWorld(kp), &oracleWorld{p: op, pushes: make([][]int, len(op.tails))}
		kp.start(kw)
		op.start(ow)
		kw.run()
		ow.run()
		if !reflect.DeepEqual(kp.log, op.log) {
			t.Fatalf("seed %d: kernel ran %v\noracle ran %v", seed, kp.log, op.log)
		}
		if !reflect.DeepEqual(kp.cancels, op.cancels) {
			t.Fatalf("seed %d: Cancel results %v, oracle %v", seed, kp.cancels, op.cancels)
		}
		for i := range kp.views {
			if k, o := kp.views[i], op.views[i]; k.tail != o.tail || !slices.Equal(k.items, o.items) {
				t.Fatalf("seed %d: in event %d's handler lane %d read %+v, oracle %+v",
					seed, kp.log[i/len(kp.tails)], i%len(kp.tails), k, o)
			}
		}
		if kw.s.Now() != ow.t || kw.s.Processed() != uint64(len(op.log)) {
			t.Fatalf("seed %d: kernel ended at %v after %d events, oracle at %v after %d",
				seed, kw.s.Now(), kw.s.Processed(), ow.t, len(op.log))
		}
	}
}

func TestLanePushOutOfOrderPanics(t *testing.T) {
	cases := []struct {
		name  string
		setup func(s *Sim, l *Lane[int])
		at    Time
		want  []string
	}{
		{"before now", func(s *Sim, l *Lane[int]) { s.MustSchedule(5, func() {}); s.Run() }, 3, []string{"at=3ns", "now=5ns"}},
		{"before tail", func(s *Sim, l *Lane[int]) { l.Push(9, 0) }, 7, []string{"at=7ns", "tail=9ns"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(1)
			l := NewLane(s, func(int) {})
			tc.setup(s, l)
			defer func() {
				msg := fmt.Sprint(recover())
				for _, w := range tc.want {
					if !strings.Contains(msg, w) {
						t.Fatalf("panic %q does not name %q", msg, w)
					}
				}
			}()
			l.Push(tc.at, 1)
		})
	}
}

func TestSeriesPastStartOrNegativeGapPanics(t *testing.T) {
	cases := []struct {
		name       string
		start, gap Time
		want       []string
	}{
		{"start before now", 3, 1, []string{"start=3ns", "now=5ns"}},
		{"negative gap", 5, -1, []string{"gap=-1ns"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := New(1)
			s.MustSchedule(5, func() {})
			s.Run()
			defer func() {
				msg := fmt.Sprint(recover())
				for _, w := range tc.want {
					if !strings.Contains(msg, w) {
						t.Fatalf("panic %q does not name %q", msg, w)
					}
				}
			}()
			NewSeries(s, tc.start, tc.gap, 1, func(int) {})
		})
	}
}

// TestSeriesReturnsItsSlot runs one series after another; each must
// give its slab slot back when its last item pops.
func TestSeriesReturnsItsSlot(t *testing.T) {
	s := New(1)
	ran := 0
	for n := 1; n <= 5; n++ {
		NewSeries(s, s.Now(), 1, n, func(int) { ran++ })
		s.Run()
	}
	if ran != 15 || len(s.slots) != 1 {
		t.Fatalf("ran %d items over a slab of %d slots, want 15 over 1", ran, len(s.slots))
	}
}

// TestLaneRefillsAfterDrain pushes onto a drained lane from its own
// handler and from outside a run; both refills must run at their times.
func TestLaneRefillsAfterDrain(t *testing.T) {
	s := New(1)
	var got []Time
	var l *Lane[int]
	l = NewLane(s, func(v int) {
		got = append(got, s.Now())
		if v == 1 {
			l.Push(s.Now()+5, 2)
		}
	})
	l.Push(10, 0)
	l.Push(10, 1)
	s.Run()
	if l.Len() != 0 {
		t.Fatalf("lane holds %d items after Run", l.Len())
	}
	l.Push(s.Now()+1, 3)
	s.Run()
	if want := []Time{10, 10, 15, 16}; !reflect.DeepEqual(got, want) {
		t.Fatalf("items ran at %v, want %v", got, want)
	}
	if s.Processed() != 4 {
		t.Fatalf("Processed() = %d, want 4", s.Processed())
	}
}

func TestLaneWarmPushRunAllocsNothing(t *testing.T) {
	s := New(1)
	sum := 0
	l := NewLane(s, func(v int) { sum += v })
	round := func() {
		for i := 0; i < 64; i++ {
			l.Push(s.Now()+Time(i), i)
		}
		s.Run()
	}
	round() // grow the lane's and the heap's backing arrays
	if a := testing.AllocsPerRun(100, round); a != 0 {
		t.Fatalf("push-and-run on a warmed lane made %v allocs, want 0", a)
	}
}

func TestTickerRearmAllocsNothing(t *testing.T) {
	s := New(1)
	ticks := 0
	if _, err := s.NewTicker(time.Millisecond, func() { ticks++ }); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(10 * time.Millisecond)
	if a := testing.AllocsPerRun(100, func() { s.RunUntil(s.Now() + 10*time.Millisecond) }); a != 0 {
		t.Fatalf("10 ticks made %v allocs, want 0", a)
	}
	if ticks != 1020 { // 10 to warm, 10 for AllocsPerRun's own warm-up, 100×10
		t.Fatalf("got %d ticks, want 1020", ticks)
	}
}
