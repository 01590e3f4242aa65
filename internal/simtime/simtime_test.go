package simtime

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleRunsInTimeOrder(t *testing.T) {
	s := New(1)
	var got []time.Duration
	for _, d := range []time.Duration{30, 10, 20, 10, 0} {
		d := d
		if _, err := s.Schedule(d*time.Millisecond, func() {
			got = append(got, s.Now())
		}); err != nil {
			t.Fatalf("Schedule(%v): %v", d, err)
		}
	}
	if n := s.Run(); n != 5 {
		t.Fatalf("Run executed %d events, want 5", n)
	}
	want := []time.Duration{0, 10 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEqualTimeEventsRunInScheduleOrder(t *testing.T) {
	s := New(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.MustSchedule(time.Second, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d; equal-time events must run FIFO", i, v)
		}
	}
}

func TestNegativeDelayRejected(t *testing.T) {
	s := New(1)
	if _, err := s.Schedule(-time.Nanosecond, func() {}); err == nil {
		t.Fatal("negative delay accepted")
	}
}

func TestScheduleAtPastRejected(t *testing.T) {
	s := New(1)
	s.MustSchedule(time.Second, func() {})
	s.Run()
	if _, err := s.ScheduleAt(500*time.Millisecond, func() {}); err == nil {
		t.Fatal("past ScheduleAt accepted")
	}
}

func TestNilHandlerRejected(t *testing.T) {
	s := New(1)
	if _, err := s.Schedule(0, nil); err == nil {
		t.Fatal("nil handler accepted")
	}
}

func TestCancel(t *testing.T) {
	s := New(1)
	ran := false
	id := s.MustSchedule(time.Second, func() { ran = true })
	if !s.Cancel(id) {
		t.Fatal("first Cancel reported false")
	}
	if s.Cancel(id) {
		t.Fatal("second Cancel reported true")
	}
	s.Run()
	if ran {
		t.Fatal("cancelled event ran")
	}

	if s.Cancel(EventID{}) {
		t.Fatal("the zero EventID cancelled something")
	}

	// The cancelled event's slot is free again, so the next ScheduleAt
	// recycles it; the stale ID must not reach the new occupant.
	ran = false
	fresh := s.MustSchedule(time.Second, func() { ran = true })
	if fresh.slot != id.slot {
		t.Fatalf("new event took slot %d, want the recycled slot %d", fresh.slot, id.slot)
	}
	if s.Cancel(EventID{}) || s.Cancel(id) {
		t.Fatal("a stale or zero EventID cancelled the slot's new occupant")
	}
	s.Run()
	if !ran {
		t.Fatal("the recycled slot's new occupant did not run")
	}
}

// TestHeapEntryHoldsNoPointers pins the pending heap's element layout:
// a pointer-bearing field in entry would bring GC write barriers back
// onto every heap move.
func TestHeapEntryHoldsNoPointers(t *testing.T) {
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		switch typ.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map,
			reflect.Func, reflect.Chan, reflect.Interface, reflect.String:
			t.Errorf("%s is a %s, which holds a pointer", path, typ.Kind())
		case reflect.Array:
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				f := typ.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		}
	}
	walk("entry", reflect.TypeOf(entry{}))
}

func TestRunUntilAdvancesClockToDeadline(t *testing.T) {
	s := New(1)
	s.MustSchedule(3*time.Second, func() {})
	n := s.RunUntil(2 * time.Second)
	if n != 0 {
		t.Fatalf("executed %d events before deadline, want 0", n)
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("Now() = %v, want 2s", s.Now())
	}
	n = s.RunUntil(4 * time.Second)
	if n != 1 {
		t.Fatalf("executed %d events in second window, want 1", n)
	}
}

func TestEventsScheduledDuringRunExecute(t *testing.T) {
	s := New(1)
	var order []string
	s.MustSchedule(time.Second, func() {
		order = append(order, "a")
		s.MustSchedule(time.Second, func() { order = append(order, "b") })
	})
	s.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 2*time.Second {
		t.Fatalf("Now() = %v, want 2s", s.Now())
	}
}

func TestStreamsDeterministicAndIndependent(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Stream("x").Int63() != b.Stream("x").Int63() {
			t.Fatal("same seed and stream name diverged")
		}
	}
	c := New(42)
	d := New(42)
	// Consuming from stream "y" must not perturb stream "x".
	for i := 0; i < 50; i++ {
		c.Stream("y").Int63()
	}
	for i := 0; i < 100; i++ {
		if c.Stream("x").Int63() != d.Stream("x").Int63() {
			t.Fatal("stream x perturbed by use of stream y")
		}
	}
}

func TestStreamDifferentNamesDiffer(t *testing.T) {
	s := New(7)
	same := true
	for i := 0; i < 10; i++ {
		if s.Stream("alpha").Int63() != s.Stream("beta").Int63() {
			same = false
		}
	}
	if same {
		t.Fatal("streams alpha and beta produced identical sequences")
	}
}

func TestTicker(t *testing.T) {
	s := New(1)
	ticks := 0
	tk, err := s.NewTicker(100*time.Millisecond, func() { ticks++ })
	if err != nil {
		t.Fatal(err)
	}
	s.RunUntil(time.Second)
	if ticks != 10 {
		t.Fatalf("got %d ticks in 1s at 100ms period, want 10", ticks)
	}
	tk.Stop()
	tk.Stop() // idempotent
	s.RunUntil(2 * time.Second)
	if ticks != 10 {
		t.Fatalf("ticker fired after Stop: %d", ticks)
	}
}

func TestTickerBadPeriod(t *testing.T) {
	s := New(1)
	if _, err := s.NewTicker(0, func() {}); err == nil {
		t.Fatal("zero period accepted")
	}
	if _, err := s.NewTicker(-time.Second, func() {}); err == nil {
		t.Fatal("negative period accepted")
	}
}

// Property: for any set of non-negative delays, execution order is a sorted
// permutation of the scheduled times.
func TestPropertyExecutionOrderSorted(t *testing.T) {
	f := func(raw []uint16) bool {
		s := New(99)
		var got []Time
		for _, d := range raw {
			at := time.Duration(d) * time.Microsecond
			s.MustSchedule(at, func() { got = append(got, s.Now()) })
		}
		s.Run()
		if len(got) != len(raw) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i] < got[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: identical seeds replay identical event counts and final clocks
// for a randomized workload built from the seed itself.
func TestPropertyDeterministicReplay(t *testing.T) {
	run := func(seed int64) (uint64, Time) {
		s := New(seed)
		r := rand.New(rand.NewSource(seed))
		var load func()
		depth := 0
		load = func() {
			if depth > 500 {
				return
			}
			depth++
			n := r.Intn(3)
			for i := 0; i < n; i++ {
				s.MustSchedule(time.Duration(r.Intn(1000))*time.Millisecond, load)
			}
		}
		for i := 0; i < 10; i++ {
			s.MustSchedule(time.Duration(r.Intn(100))*time.Millisecond, load)
		}
		n := s.Run()
		return n, s.Now()
	}
	f := func(seed int64) bool {
		n1, t1 := run(seed)
		n2, t2 := run(seed)
		return n1 == n2 && t1 == t2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(1)
		for j := 0; j < 1000; j++ {
			s.MustSchedule(time.Duration(j%97)*time.Millisecond, func() {})
		}
		s.Run()
	}
}

// BenchmarkLaneRun is BenchmarkScheduleRun's 1000 events fed through one
// lane, in time order as a lane requires.
func BenchmarkLaneRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(1)
		l := NewLane(s, func(int) {})
		for j := 0; j < 1000; j++ {
			l.Push(time.Duration(j*97/1000)*time.Millisecond, j)
		}
		s.Run()
	}
}

// BenchmarkSeriesRun is BenchmarkLaneRun's 1000 items over the same
// 97 ms as one series, which holds no per-item state.
func BenchmarkSeriesRun(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := New(1)
		NewSeries(s, 0, 97*time.Microsecond, 1000, func(int) {})
		s.Run()
	}
}

func TestMustSchedulePanicsOnNegative(t *testing.T) {
	s := New(1)
	defer func() {
		if recover() == nil {
			t.Fatal("MustSchedule accepted a negative delay")
		}
	}()
	s.MustSchedule(-time.Second, func() {})
}

func TestSeedAndProcessedAccessors(t *testing.T) {
	s := New(77)
	if s.Seed() != 77 {
		t.Fatalf("Seed() = %d", s.Seed())
	}
	s.MustSchedule(0, func() {})
	s.MustSchedule(0, func() {})
	s.Run()
	if s.Processed() != 2 {
		t.Fatalf("Processed() = %d", s.Processed())
	}
}

// TestStepSkipsCancelled checks that a run step over a cancelled head
// event retires it without executing or counting it, and executes the
// next live event at that event's time.
func TestStepSkipsCancelled(t *testing.T) {
	s := New(1)
	id := s.MustSchedule(time.Second, func() { t.Fatal("cancelled event ran") })
	s.Cancel(id)
	ran := false
	s.MustSchedule(2*time.Second, func() { ran = true })
	if n := s.RunUntil(2 * time.Second); n != 1 || !ran {
		t.Fatalf("RunUntil executed %d events (live one ran: %v), want 1", n, ran)
	}
	if s.Processed() != 1 || s.Now() != 2*time.Second {
		t.Fatalf("processed %d at %v, want 1 at 2s", s.Processed(), s.Now())
	}
}

func TestRunUntilReentryPanics(t *testing.T) {
	s := New(1)
	s.MustSchedule(time.Second, func() {
		defer func() {
			if recover() == nil {
				t.Fatal("re-entrant RunUntil did not panic")
			}
		}()
		s.RunUntil(2 * time.Second)
	})
	s.Run()
}

func TestInterruptHaltsRun(t *testing.T) {
	s := New(1)
	// A self-perpetuating event chain: without an interrupt this would
	// run forever (or to the deadline).
	var reschedule func()
	ran := 0
	reschedule = func() {
		ran++
		s.MustSchedule(time.Millisecond, reschedule)
	}
	s.MustSchedule(time.Millisecond, reschedule)
	stop := errors.New("stop")
	checks := 0
	s.SetInterrupt(func() error {
		checks++
		if checks > 3 {
			return stop
		}
		return nil
	})
	s.RunUntil(time.Hour)
	if s.Interrupted() == nil {
		t.Fatal("interrupt did not fire")
	}
	if !errors.Is(s.Interrupted(), stop) {
		t.Fatalf("Interrupted() = %v, want %v", s.Interrupted(), stop)
	}
	if ran == 0 || s.Now() >= time.Hour {
		t.Fatalf("run halted wrong: ran=%d now=%v", ran, s.Now())
	}
	// An interrupted sim stays halted: later runs execute nothing and do
	// not advance the clock.
	before := s.Now()
	if n := s.RunUntil(2 * time.Hour); n != 0 {
		t.Fatalf("interrupted sim executed %d more events", n)
	}
	if s.Now() != before {
		t.Fatalf("interrupted sim advanced clock %v -> %v", before, s.Now())
	}
}

func TestInterruptNilCheckIsIdentical(t *testing.T) {
	run := func(install bool) (uint64, Time) {
		s := New(7)
		var tick func()
		left := 5000
		tick = func() {
			if left--; left > 0 {
				s.MustSchedule(time.Millisecond, tick)
			}
		}
		s.MustSchedule(time.Millisecond, tick)
		if install {
			s.SetInterrupt(func() error { return nil })
		}
		n := s.RunUntil(10 * time.Second)
		return n, s.Now()
	}
	n1, t1 := run(false)
	n2, t2 := run(true)
	if n1 != n2 || t1 != t2 {
		t.Fatalf("nil-returning interrupt perturbed the run: (%d,%v) vs (%d,%v)", n1, t1, n2, t2)
	}
}
