package simtime

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// --- NextEventTime ---

func TestNextEventTimeSkipsCancelled(t *testing.T) {
	s := New(1)
	if _, ok := s.NextEventTime(); ok {
		t.Fatal("empty sim reported a next event")
	}
	id := s.MustSchedule(10, func() {})
	s.MustSchedule(30, func() {})
	if at, ok := s.NextEventTime(); !ok || at != 10 {
		t.Fatalf("NextEventTime = %v,%v want 10,true", at, ok)
	}
	s.Cancel(id)
	if at, ok := s.NextEventTime(); !ok || at != 30 {
		t.Fatalf("after cancelling head NextEventTime = %v,%v want 30,true", at, ok)
	}
	s.Run()
	if _, ok := s.NextEventTime(); ok {
		t.Fatal("drained sim reported a next event")
	}
}

// --- satellite: per-call interrupt stride ---

// TestInterruptChecksPerCall pins the bounded-per-call cancellation
// latency: every RunUntil call consults the interrupt on entry, so a
// windowed run resumed mid-stride cannot inherit a nearly-elapsed
// stride from the previous window.
func TestInterruptChecksPerCall(t *testing.T) {
	s := New(1)
	// Burn most of a stride in one call.
	for i := 0; i < interruptStride-1; i++ {
		s.MustSchedule(Time(i+1), func() {})
	}
	checks := 0
	s.SetInterrupt(func() error { checks++; return nil })
	s.RunUntil(Time(interruptStride))
	if checks != 1 {
		t.Fatalf("first call made %d checks, want 1", checks)
	}
	// The next call must check immediately even though the lifetime
	// event count is mid-stride.
	stop := errors.New("stop")
	s.SetInterrupt(func() error { checks++; return stop })
	s.MustSchedule(s.Now()+1, func() { t.Fatal("event ran after interrupt") })
	if n := s.RunUntil(s.Now() + 10); n != 0 {
		t.Fatalf("interrupted call executed %d events, want 0", n)
	}
	if checks != 2 {
		t.Fatalf("second call made %d total checks, want 2 (one on entry)", checks)
	}
	if !errors.Is(s.Interrupted(), stop) {
		t.Fatalf("Interrupted = %v, want %v", s.Interrupted(), stop)
	}
}

// --- ShardedSim coordinator ---

// buildPingPong wires d domains where every domain schedules local work
// and periodically posts cross-domain echoes, recording a global trace
// of (domain, time, tag) tuples through a shared (coordinator-ordered)
// log. Deterministic for any executor count iff the coordinator's merge
// rule is a strict total order.
func buildPingPong(t *testing.T, domains int, lookahead Time, horizon Time) (*ShardedSim, *[]string) {
	t.Helper()
	ss, err := NewSharded(42, domains)
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.SetLookahead(lookahead); err != nil {
		t.Fatal(err)
	}
	log := &[]string{}
	for i := 0; i < domains; i++ {
		i := i
		sim := ss.Domain(i)
		rng := sim.Stream(fmt.Sprintf("pp.%d", i))
		var tick func()
		tick = func() {
			now := sim.Now()
			*log = append(*log, fmt.Sprintf("d%d t%d local r%d", i, now, rng.Intn(1000)))
			// Echo into a pseudo-random neighbour, respecting lookahead.
			dst := (i + 1 + rng.Intn(domains-1)) % domains
			at := now + lookahead + Time(rng.Intn(3000))
			if at <= horizon {
				ss.Post(i, dst, at, func() {
					*log = append(*log, fmt.Sprintf("d%d t%d recv-from-d%d", dst, ss.Domain(dst).Now(), i))
				})
			}
			if next := now + 700 + Time(rng.Intn(900)); next <= horizon {
				sim.MustSchedule(next-now, tick)
			}
		}
		sim.MustSchedule(Time(50*(i+1)), tick)
	}
	return ss, log
}

// Appending to the shared log from executor goroutines would race; the
// ping-pong model is therefore only run with Workers(1) when the log is
// live. For worker>1 runs we use a per-domain digest instead.
func buildDigestPingPong(t *testing.T, domains int, lookahead, horizon Time, seed int64) (*ShardedSim, []*uint64) {
	t.Helper()
	ss, err := NewSharded(seed, domains)
	if err != nil {
		t.Fatal(err)
	}
	if err := ss.SetLookahead(lookahead); err != nil {
		t.Fatal(err)
	}
	digests := make([]*uint64, domains)
	for i := 0; i < domains; i++ {
		i := i
		digests[i] = new(uint64)
		sim := ss.Domain(i)
		rng := sim.Stream(fmt.Sprintf("pp.%d", i))
		mix := func(v uint64) {
			h := *digests[i]
			h = (h ^ v) * 0x9e3779b97f4a7c15
			h ^= h >> 29
			*digests[i] = h
		}
		var tick func()
		tick = func() {
			now := sim.Now()
			mix(uint64(now))
			mix(uint64(rng.Intn(1 << 20)))
			dst := (i + 1 + rng.Intn(domains-1)) % domains
			at := now + lookahead + Time(rng.Intn(3000))
			if at <= horizon {
				src := i
				ss.Post(i, dst, at, func() {
					h := *digests[dst]
					h = (h ^ uint64(ss.Domain(dst).Now()) ^ uint64(src)<<40) * 0x9e3779b97f4a7c15
					*digests[dst] = h
				})
			}
			if next := now + 700 + Time(rng.Intn(900)); next <= horizon {
				sim.MustSchedule(next-now, tick)
			}
		}
		sim.MustSchedule(Time(50*(i+1)), tick)
	}
	return ss, digests
}

func TestShardedDeterministicAcrossWorkerCounts(t *testing.T) {
	const domains = 5
	const lookahead = Time(1000)
	const horizon = Time(400_000)
	run := func(workers int) []uint64 {
		ss, digests := buildDigestPingPong(t, domains, lookahead, horizon, 7)
		defer ss.Close()
		ss.SetWorkers(workers)
		ss.Run()
		out := make([]uint64, domains)
		for i, d := range digests {
			out[i] = *d
		}
		return out
	}
	want := run(1)
	for _, w := range []int{2, 4, 8} {
		got := run(w)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d domain %d digest %x != serial %x", w, i, got[i], want[i])
			}
		}
	}
}

func TestShardedMatchesTraceOrder(t *testing.T) {
	// Serial (workers=1) run with a full trace: verify cross-domain
	// receives are interleaved in global time order per domain and that
	// a re-run reproduces the trace exactly.
	ss, log := buildPingPong(t, 4, 1500, 200_000)
	defer ss.Close()
	ss.Run()
	first := strings.Join(*log, "\n")
	if len(*log) == 0 {
		t.Fatal("trace empty")
	}
	ss2, log2 := buildPingPong(t, 4, 1500, 200_000)
	defer ss2.Close()
	ss2.Run()
	if second := strings.Join(*log2, "\n"); second != first {
		t.Fatal("re-run trace differs")
	}
}

func TestShardedRunUntilWindowsAndClock(t *testing.T) {
	ss, _ := buildDigestPingPong(t, 3, 1000, 50_000, 9)
	defer ss.Close()
	n1 := ss.RunUntil(25_000)
	if ss.now != 25_000 {
		t.Fatalf("Now = %v after RunUntil(25000)", ss.now)
	}
	for i := 0; i < ss.Domains(); i++ {
		if got := ss.Domain(i).Now(); got != 25_000 {
			t.Fatalf("domain %d clock %v, want 25000", i, got)
		}
	}
	n2 := ss.RunUntil(maxTime)
	if n1 == 0 || n2 == 0 {
		t.Fatalf("expected events in both halves, got %d then %d", n1, n2)
	}
	// Split run equals whole run.
	ssW, _ := buildDigestPingPong(t, 3, 1000, 50_000, 9)
	defer ssW.Close()
	if whole := ssW.Run(); whole != n1+n2 {
		t.Fatalf("split run executed %d events, whole run %d", n1+n2, whole)
	}
	if ss.Windows() == 0 || ss.CrossPosted() == 0 {
		t.Fatalf("windows=%d crossPosted=%d, want both > 0", ss.Windows(), ss.CrossPosted())
	}
	if ss.Processed() != n1+n2 {
		t.Fatalf("Processed = %d, want %d", ss.Processed(), n1+n2)
	}
}

func TestShardedPostLookaheadViolationPanics(t *testing.T) {
	ss, err := NewSharded(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if err := ss.SetLookahead(1000); err != nil {
		t.Fatal(err)
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("lookahead-violating Post did not panic")
		}
		if !strings.Contains(fmt.Sprint(r), "violates lookahead") {
			t.Fatalf("panic message %q lacks lookahead diagnosis", r)
		}
	}()
	ss.Post(0, 1, 999, func() {})
}

func TestShardedZeroLookaheadRejected(t *testing.T) {
	ss, err := NewSharded(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if err := ss.SetLookahead(0); err == nil {
		t.Fatal("SetLookahead(0) accepted")
	}
	if err := ss.SetLookahead(-5); err == nil {
		t.Fatal("SetLookahead(-5) accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("RunUntil without lookahead did not panic")
		}
	}()
	ss.Domain(0).MustSchedule(10, func() {})
	ss.Run()
}

func TestShardedSingleDomainFastPath(t *testing.T) {
	ss, err := NewSharded(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	// No lookahead needed with one domain.
	ran := 0
	ss.Domain(0).MustSchedule(10, func() { ran++ })
	ss.Domain(0).MustSchedule(20, func() { ran++ })
	if n := ss.RunUntil(15); n != 1 || ran != 1 {
		t.Fatalf("RunUntil(15) = %d events (ran %d), want 1", n, ran)
	}
	if ss.now != 15 {
		t.Fatalf("Now = %v, want 15", ss.now)
	}
	if n := ss.Run(); n != 1 || ran != 2 {
		t.Fatalf("Run = %d events (ran %d), want 1 more", n, ran)
	}
}

func TestShardedIdleFastForward(t *testing.T) {
	// Two distant event clusters: the window loop must jump the gap
	// rather than grinding empty lookahead windows across it.
	ss, err := NewSharded(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer ss.Close()
	if err := ss.SetLookahead(10); err != nil {
		t.Fatal(err)
	}
	ss.Domain(0).MustSchedule(5, func() {})
	ss.Domain(1).MustSchedule(1_000_000_005, func() {})
	ss.Run()
	if w := ss.Windows(); w > 4 {
		t.Fatalf("idle gap cost %d windows, want <= 4", w)
	}
}

func TestShardedInterrupt(t *testing.T) {
	ss, _ := buildDigestPingPong(t, 3, 1000, 500_000, 11)
	defer ss.Close()
	stop := errors.New("cancelled")
	var calls int
	ss.SetInterrupt(func() error {
		calls++
		if calls > 3 {
			return stop
		}
		return nil
	})
	ss.Run()
	if !errors.Is(ss.Interrupted(), stop) {
		t.Fatalf("Interrupted = %v, want %v", ss.Interrupted(), stop)
	}
}

func TestShardedInstrument(t *testing.T) {
	reg := obs.NewRegistry()
	ss, _ := buildDigestPingPong(t, 3, 1000, 100_000, 5)
	defer ss.Close()
	ss.Instrument(reg)
	ss.SetWorkers(3)
	ss.Run()
	snap := reg.Snapshot()
	var sawEvents, sawWindows, sawCross bool
	var eventsTotal uint64
	for _, m := range snap.Counters {
		switch {
		case strings.HasPrefix(m.Name, "simtime.shard.d") && strings.HasSuffix(m.Name, ".events"):
			sawEvents = true
			eventsTotal += m.Value
		case m.Name == "simtime.shard.windows":
			sawWindows = m.Value > 0
		case m.Name == "simtime.shard.cross_msgs":
			sawCross = m.Value > 0
		}
	}
	if !sawEvents || !sawWindows || !sawCross {
		t.Fatalf("missing instruments: events=%v windows=%v cross=%v", sawEvents, sawWindows, sawCross)
	}
	if eventsTotal != ss.Processed() {
		t.Fatalf("per-domain event counters sum %d, Processed %d", eventsTotal, ss.Processed())
	}
}

func TestShardedWorkerPoolStallHistogram(t *testing.T) {
	reg := obs.NewRegistry()
	ss, _ := buildDigestPingPong(t, 4, 1000, 150_000, 13)
	defer ss.Close()
	ss.Instrument(reg)
	ss.SetWorkers(4)
	start := time.Now()
	ss.Run()
	if time.Since(start) > 30*time.Second {
		t.Fatal("sharded run wedged")
	}
	snap := reg.Snapshot()
	found := false
	for _, h := range snap.Hists {
		if h.Name == "simtime.shard.barrier_stall_ns" && h.Count > 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("barrier stall histogram empty after parallel run")
	}
}

// TestShardedAttribution pins the per-domain wall-clock attribution
// surface: events/windows totals must reconcile exactly with the
// deterministic counters, the busy/blocked/idle gauges and occupancy
// histogram must materialize, and the flight recorder must carry the
// window timeline.
func TestShardedAttribution(t *testing.T) {
	const domains = 4
	reg := obs.NewRegistry()
	flight := reg.EnableFlight(1 << 12)
	ss, _ := buildDigestPingPong(t, domains, 1000, 150_000, 21)
	defer ss.Close()
	ss.Instrument(reg)
	ss.SetWorkers(domains)
	ss.Run()

	attr := ss.Attribution()
	if len(attr) != domains {
		t.Fatalf("attribution entries = %d, want %d", len(attr), domains)
	}
	var events uint64
	for i, a := range attr {
		if a.Domain != i {
			t.Fatalf("attribution[%d].Domain = %d", i, a.Domain)
		}
		if a.Windows != ss.Windows() {
			t.Fatalf("d%d windows = %d, coordinator ran %d", i, a.Windows, ss.Windows())
		}
		events += a.Events
	}
	if events != ss.Processed() {
		t.Fatalf("attribution events sum %d, Processed %d", events, ss.Processed())
	}

	snap := reg.Snapshot()
	for _, name := range []string{
		"simtime.shard.d00.busy_ns", "simtime.shard.d00.blocked_ns",
		"simtime.shard.d00.idle_ns", "simtime.shard.now_ns",
		fmt.Sprintf("simtime.shard.d%02d.busy_ns", domains-1),
	} {
		if _, ok := snap.Gauge(name); !ok {
			t.Errorf("gauge %s missing from snapshot", name)
		}
	}
	if g, _ := snap.Gauge("simtime.shard.now_ns"); g.Value <= 0 {
		t.Errorf("live sim clock gauge = %d, want > 0", g.Value)
	}
	occ := snap.Hist("simtime.shard.window_events")
	if occ == nil || occ.Count != uint64(domains)*ss.Windows() {
		t.Fatalf("occupancy histogram count = %+v, want %d samples", occ, uint64(domains)*ss.Windows())
	}

	var windows, waits uint64
	var flightEvents uint64
	for _, e := range flight.Events() {
		switch e.Kind {
		case obs.FlightWindow:
			windows++
			flightEvents += uint64(e.Arg)
			if e.Dom < 0 || int(e.Dom) >= domains {
				t.Fatalf("window event on bogus domain %d", e.Dom)
			}
			if e.Sim < 0 {
				t.Fatalf("window event missing sim time")
			}
		case obs.FlightBarrierWait:
			waits++
		}
	}
	if windows == 0 {
		t.Fatal("no window events in the flight recorder")
	}
	if flight.Dropped() == 0 && flightEvents != ss.Processed() {
		t.Fatalf("flight window events account for %d events, Processed %d", flightEvents, ss.Processed())
	}
	_ = waits // stalls may legitimately round to zero on a fast box
}

// TestShardedAttributionOffByDefault pins the zero-cost contract: an
// uninstrumented coordinator tracks nothing.
func TestShardedAttributionOffByDefault(t *testing.T) {
	ss, _ := buildDigestPingPong(t, 3, 1000, 50_000, 7)
	defer ss.Close()
	ss.Run()
	if ss.Attribution() != nil {
		t.Fatal("attribution tracked without Instrument")
	}
}

// TestShardedInstrumentedRunIsByteIdentical extends the determinism
// contract to the full observability plane: the same model with
// attribution + flight recording on, run parallel, digests identically
// to the bare serial run.
func TestShardedInstrumentedRunIsByteIdentical(t *testing.T) {
	const domains, lookahead, horizon, seed = 5, Time(1000), Time(200_000), int64(99)
	bare, bareDig := buildDigestPingPong(t, domains, lookahead, horizon, seed)
	defer bare.Close()
	bare.Run()

	reg := obs.NewRegistry()
	reg.EnableFlight(1 << 12)
	inst, instDig := buildDigestPingPong(t, domains, lookahead, horizon, seed)
	defer inst.Close()
	inst.Instrument(reg)
	inst.SetWorkers(domains)
	inst.Run()

	for i := range bareDig {
		if *bareDig[i] != *instDig[i] {
			t.Fatalf("domain %d digest differs with observability on: %x vs %x", i, *bareDig[i], *instDig[i])
		}
	}
	if bare.Processed() != inst.Processed() || bare.Windows() != inst.Windows() {
		t.Fatalf("processed/windows differ: %d/%d vs %d/%d",
			bare.Processed(), bare.Windows(), inst.Processed(), inst.Windows())
	}
}

// runWithin runs f and fails the test if it has not returned within d:
// a parallel barrier that loses a completion or a wake-up wedges rather
// than erring.
func runWithin(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s wedged (no return within %v)", what, d)
	}
}

// waitGoroutines fails the test unless the goroutine count falls back to
// want shortly after Close: helpers signal their exit just before their
// goroutines end.
func waitGoroutines(t *testing.T, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines after Close, %d before the run", what, runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestShardedBarrierManyWindows drives the parallel barrier through
// tens of thousands of windows holding an event or two per domain, so a
// helper leaving one window keeps racing the coordinator opening the
// next. Every executor count, including one above GOMAXPROCS, must
// reproduce the serial digests without wedging; Close must take every
// helper down, even straight after a short run; and an interrupt raised
// mid-run must halt the run.
func TestShardedBarrierManyWindows(t *testing.T) {
	domains := max(6, runtime.GOMAXPROCS(0)+2)
	const lookahead, horizon = Time(1000), Time(24_000_000)
	serial, serialDig := buildDigestPingPong(t, domains, lookahead, horizon, 3)
	serial.Run()
	serial.Close()
	if serial.Windows() < 20_000 {
		t.Fatalf("model ran %d windows, want >= 20000", serial.Windows())
	}
	for _, workers := range []int{2, 3, domains} {
		what := fmt.Sprintf("workers=%d", workers)
		before := runtime.NumGoroutine()
		ss, dig := buildDigestPingPong(t, domains, lookahead, horizon, 3)
		ss.SetWorkers(workers)
		runWithin(t, time.Minute, what+" run", func() { ss.Run() })
		runWithin(t, time.Minute, what+" Close", ss.Close)
		waitGoroutines(t, before, what)
		for i := range serialDig {
			if *dig[i] != *serialDig[i] {
				t.Fatalf("%s domain %d digest %x != serial %x", what, i, *dig[i], *serialDig[i])
			}
		}
		if ss.Windows() != serial.Windows() || ss.Processed() != serial.Processed() {
			t.Fatalf("%s ran %d windows/%d events, serial %d/%d",
				what, ss.Windows(), ss.Processed(), serial.Windows(), serial.Processed())
		}
	}

	// Close right after a run of a few windows, before the helpers may
	// even have been scheduled: none of them may sleep through it.
	before := runtime.NumGoroutine()
	for r := 0; r < 200; r++ {
		ss, _ := buildDigestPingPong(t, domains, lookahead, 3000, int64(r))
		ss.SetWorkers(3)
		ss.Run()
		runWithin(t, time.Minute, "Close after a short run", ss.Close)
	}
	waitGoroutines(t, before, "short runs")

	// Interrupt: the check runs on whichever executor holds a domain, so
	// it counts atomically; it fires a few hundred windows in.
	ss, _ := buildDigestPingPong(t, domains, lookahead, horizon, 3)
	ss.SetWorkers(3)
	stop := errors.New("stop")
	var checks atomic.Int64
	ss.SetInterrupt(func() error {
		if checks.Add(1) > int64(300*domains) {
			return stop
		}
		return nil
	})
	runWithin(t, time.Minute, "interrupted run", func() { ss.Run() })
	if !errors.Is(ss.Interrupted(), stop) {
		t.Fatalf("Interrupted = %v, want %v", ss.Interrupted(), stop)
	}
	if ss.Windows() >= serial.Windows() {
		t.Fatalf("interrupted run went on for all %d windows", ss.Windows())
	}
	runWithin(t, time.Minute, "Close after interrupt", ss.Close)
	waitGoroutines(t, before, "interrupted run")
}
