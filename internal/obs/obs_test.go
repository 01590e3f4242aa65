package obs

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/par"
)

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	g := reg.Gauge("y")
	h := reg.Histogram("z", ClockSim)
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Update(-1)
	h.Observe(7)
	h.ObserveDuration(time.Second)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments recorded something")
	}
	sp := reg.StartSpan("stage")
	if d := sp.End(); d < 0 {
		t.Fatalf("nil span measured negative time %v", d)
	}
	if reg.Snapshot() != nil {
		t.Fatal("nil registry produced a snapshot")
	}
	if _, ok := reg.SpanDur("stage"); ok {
		t.Fatal("nil registry recorded a span")
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("a") != reg.Counter("a") {
		t.Fatal("same counter name gave different instruments")
	}
	if reg.Gauge("b") != reg.Gauge("b") {
		t.Fatal("same gauge name gave different instruments")
	}
	if reg.Histogram("c", ClockWall) != reg.Histogram("c", ClockWall) {
		t.Fatal("same histogram name gave different instruments")
	}
}

func TestGaugeHighWaterMark(t *testing.T) {
	reg := NewRegistry()
	g := reg.Gauge("depth")
	g.Update(3)
	g.Update(4)
	g.Update(-5)
	if got := g.Value(); got != 2 {
		t.Fatalf("gauge value = %d, want 2", got)
	}
	if got := g.High(); got != 7 {
		t.Fatalf("gauge high = %d, want 7", got)
	}
}

// TestHistogramQuantilesKnownDistribution pins the percentile estimator
// on a distribution whose exact quantiles are known: the integers
// 1..1000, observed once each, with bucket bounds every 10 units. All
// interpolated percentiles must land within one bucket width of truth.
func TestHistogramQuantilesKnownDistribution(t *testing.T) {
	bounds := make([]int64, 100)
	for i := range bounds {
		bounds[i] = int64((i + 1) * 10)
	}
	h := NewHistogram("known", ClockNone, bounds)
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	s := h.Snap()
	if s.Count != 1000 || s.Min != 1 || s.Max != 1000 {
		t.Fatalf("snap count=%d min=%d max=%d", s.Count, s.Min, s.Max)
	}
	for _, tc := range []struct {
		q    float64
		want int64
	}{{0.5, 500}, {0.95, 950}, {0.99, 990}, {0.10, 100}} {
		got := s.Quantile(tc.q)
		if got < tc.want-10 || got > tc.want+10 {
			t.Errorf("q%.2f = %d, want %d ± 10", tc.q, got, tc.want)
		}
	}
	if got := s.Quantile(0); got != 1 {
		t.Errorf("q0 = %d, want min 1", got)
	}
	if got := s.Quantile(1); got != 1000 {
		t.Errorf("q1 = %d, want max 1000", got)
	}
	if s.Sum != 500500 {
		t.Errorf("sum = %d, want 500500", s.Sum)
	}
}

func TestHistogramDefaultLadderSortedAndCovers(t *testing.T) {
	b := defaultDurationBounds
	for i := 1; i < len(b); i++ {
		if b[i] <= b[i-1] {
			t.Fatalf("ladder not strictly ascending at %d: %d <= %d", i, b[i], b[i-1])
		}
	}
	h := NewHistogram("d", ClockSim, nil)
	h.ObserveDuration(50 * time.Nanosecond) // below first bound
	h.ObserveDuration(3 * time.Millisecond) // interior
	h.ObserveDuration(10 * time.Minute)     // overflow bucket
	s := h.Snap()
	if s.Count != 3 {
		t.Fatalf("count = %d", s.Count)
	}
	if s.Max != int64(10*time.Minute) {
		t.Fatalf("max = %d", s.Max)
	}
	// Overflow observation must still be clamped to the observed max.
	if got := s.Quantile(1); got != int64(10*time.Minute) {
		t.Fatalf("q1 = %d", got)
	}
	// A plain binary search over the ladder agrees with the hot-path
	// placement.
	for _, v := range []int64{1, 100, 101, int64(time.Second), 1 << 62} {
		want := sort.Search(len(b), func(i int) bool { return b[i] >= v })
		h2 := NewHistogram("probe", ClockNone, b)
		h2.Observe(v)
		idx := -1
		for i := range h2.counts {
			if h2.counts[i].Load() == 1 {
				idx = i
				break
			}
		}
		if idx != want {
			t.Fatalf("value %d landed in bucket %d, want %d", v, idx, want)
		}
	}
}

func TestSpanRecordingAndTimeline(t *testing.T) {
	reg := NewRegistry()
	sp := reg.StartSpan("stage.a")
	time.Sleep(time.Millisecond)
	da := sp.End()
	sp = reg.StartSpan("stage.b")
	db := sp.End()

	spans := reg.Snapshot().Spans
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[0].Name != "stage.a" || spans[0].Dur != da || spans[0].Clock != ClockWall {
		t.Fatalf("span[0] = %+v", spans[0])
	}
	if spans[1].Start < spans[0].Start {
		t.Fatal("wall spans not rebased onto a shared epoch")
	}
	if d, ok := reg.SpanDur("stage.b"); !ok || d != db {
		t.Fatalf("SpanDur(stage.b) = %v, %v", d, ok)
	}
}

func TestSnapshotDeterministicOrderAndExports(t *testing.T) {
	build := func() *Snapshot {
		reg := NewRegistry()
		// Register in shuffled order; snapshot must sort.
		reg.Counter("z.count").Add(2)
		reg.Counter("a.count").Inc()
		reg.Gauge("m.depth").Set(4)
		reg.Histogram("b.lat_ns", ClockSim).ObserveDuration(3 * time.Millisecond)
		return reg.Snapshot()
	}
	s := build()
	if s.Counters[0].Name != "a.count" || s.Counters[1].Name != "z.count" {
		t.Fatalf("counters not sorted: %+v", s.Counters)
	}
	if v, ok := s.Counter("z.count"); !ok || v != 2 {
		t.Fatalf("Counter(z.count) = %d, %v", v, ok)
	}
	if g, ok := s.Gauge("m.depth"); !ok || g.Value != 4 {
		t.Fatalf("Gauge(m.depth) = %+v, %v", g, ok)
	}
	if h := s.Hist("b.lat_ns"); h == nil || h.Count != 1 {
		t.Fatalf("Hist(b.lat_ns) = %+v", s.Hist("b.lat_ns"))
	}

	var prom1, prom2 bytes.Buffer
	if err := s.WritePrometheus(&prom1); err != nil {
		t.Fatal(err)
	}
	if err := build().WritePrometheus(&prom2); err != nil {
		t.Fatal(err)
	}
	if prom1.String() != prom2.String() {
		t.Fatal("prometheus export not deterministic across identical registries")
	}
	for _, want := range []string{
		"# HELP a_count a.count (counter)", "# TYPE a_count counter", "a_count 1",
		"# TYPE m_depth gauge", "m_depth 4",
		"# TYPE m_depth_high gauge", "m_depth_high 4",
		"# HELP b_lat_ns b.lat_ns (histogram, clock=sim)", "# TYPE b_lat_ns histogram",
		`b_lat_ns_bucket{le="+Inf"} 1`,
		"# TYPE b_lat_ns_q gauge", `b_lat_ns_q{quantile="0.95"}`,
	} {
		if !strings.Contains(prom1.String(), want) {
			t.Errorf("prometheus export missing %q:\n%s", want, prom1.String())
		}
	}

	var jl bytes.Buffer
	if err := s.WriteJSONL(&jl); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(jl.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("jsonl lines = %d, want 4:\n%s", len(lines), jl.String())
	}
	for _, l := range lines {
		if !strings.HasPrefix(l, `{"kind":`) {
			t.Fatalf("jsonl line not an event object: %s", l)
		}
	}
}

// TestSubViewsLiveInRoot pins the prefix view: instruments made through
// a view, nested views included, appear in the root's Snapshot under
// their prefixed names while the run still writes them; a view's own
// Snapshot holds only its part, under the names it registered; Sub on
// the disabled registry stays disabled; and every view shares the
// root's flight recorder.
func TestSubViewsLiveInRoot(t *testing.T) {
	root := NewRegistry()
	fl := root.EnableFlight(0)
	product := root.Sub("TrueSecure.")
	acc := product.Sub("accuracy.")

	drops := acc.Counter("drops")
	drops.Add(3)
	product.Gauge("depth").Set(7)
	acc.Histogram("lat_ns", ClockSim).Observe(100)
	acc.StartSpan("stage").End()

	live := root.Snapshot()
	if v, ok := live.Counter("TrueSecure.accuracy.drops"); !ok || v != 3 {
		t.Fatalf("root counter = %d %v, want the view's 3", v, ok)
	}
	if g, ok := live.Gauge("TrueSecure.depth"); !ok || g.Value != 7 {
		t.Fatalf("root gauge = %+v %v, want 7", g, ok)
	}
	if live.Hist("TrueSecure.accuracy.lat_ns") == nil {
		t.Fatal("root snapshot lost the view's histogram")
	}
	if _, ok := root.SpanDur("TrueSecure.accuracy.stage"); !ok {
		t.Fatal("root lost the view's span")
	}

	// The instruments stay live: a later write shows in the next
	// snapshot, and the root hands out the very instrument the view made.
	drops.Inc()
	if v, _ := root.Snapshot().Counter("TrueSecure.accuracy.drops"); v != 4 {
		t.Fatalf("root counter after a live write = %d, want 4", v)
	}
	if root.Counter("TrueSecure.accuracy.drops") != drops {
		t.Fatal("root and view registered two counters for one name")
	}

	// A view snapshots only what lives under its prefix.
	vs := acc.Snapshot()
	if v, ok := vs.Counter("drops"); !ok || v != 4 || len(vs.Gauges) != 0 {
		t.Fatalf("view snapshot = %+v, want only the accuracy part", vs)
	}
	if _, ok := acc.SpanDur("stage"); !ok {
		t.Fatal("view lost its own span")
	}

	// An adopted summary files under the view's prefix, name-sorted
	// among the live histograms.
	h := NewHistogram("eval.delay_ns", ClockSim, nil)
	h.Observe(5)
	product.AdoptHist(h.Snap())
	hs := root.Snapshot().Hists
	if len(hs) != 2 || hs[0].Name != "TrueSecure.accuracy.lat_ns" || hs[1].Name != "TrueSecure.eval.delay_ns" || hs[1].Count != 1 {
		t.Fatalf("root histograms = %+v, want the live one then the adopted one", hs)
	}
	if h.Snap().Name != "eval.delay_ns" {
		t.Fatal("AdoptHist renamed the caller's summary")
	}

	var off *Registry
	if off.Sub("x.") != nil || off.Sub("x.").Sub("y.").Counter("n") != nil {
		t.Fatal("Sub on a nil registry must stay nil")
	}

	if acc.Flight() != fl || root.Sub("other.").Flight() != fl {
		t.Fatal("a view's flight recorder is not its root's")
	}
	r2 := NewRegistry()
	if f2 := r2.Sub("v.").EnableFlight(0); f2 == nil || r2.Flight() != f2 {
		t.Fatal("a flight recorder enabled through a view must land on the root")
	}
}

// TestConcurrentRegistryUse hammers one registry's instruments from the
// same bounded worker pool the evaluation pipeline uses; run under
// -race this pins the concurrency contract of the hot path and of
// snapshotting during writes.
func TestConcurrentRegistryUse(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("shared.count")
	g := reg.Gauge("shared.depth")
	h := reg.Histogram("shared.lat_ns", ClockWall)
	const workers, perWorker = 8, 5000
	err := par.ForEach(context.Background(), workers, workers, func(_ context.Context, i int) error {
		// Concurrent registration of the same and distinct names.
		reg.Counter("shared.count").Inc()
		own := reg.Histogram("worker.lat_ns", ClockWall)
		for j := 0; j < perWorker; j++ {
			c.Inc()
			g.Update(1)
			g.Update(-1)
			h.Observe(int64(j))
			own.Observe(int64(j))
			if j%1000 == 0 {
				_ = reg.Snapshot() // snapshot racing writers must be safe
			}
		}
		reg.StartSpan("worker.stage").End()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Value(); got != workers*perWorker+workers {
		t.Fatalf("counter = %d, want %d", got, workers*perWorker+workers)
	}
	if got := h.Count(); got != workers*perWorker {
		t.Fatalf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got := len(reg.Snapshot().Spans); got != workers {
		t.Fatalf("spans = %d, want %d", got, workers)
	}
}

// TestHistogramSnapshotWhileObserving snapshots a histogram while
// another goroutine observes into it, as a live /metrics scrape does.
// Every snapshot's buckets must add up to its Count, and its Prometheus
// bucket ladder must never decrease up to and including le="+Inf".
func TestHistogramSnapshotWhileObserving(t *testing.T) {
	h := NewRegistry().Histogram("live.scan_cost_ns", ClockWall)
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for v := int64(0); ; v++ {
			select {
			case <-stop:
				return
			default:
				h.Observe(v % 100000)
			}
		}
	}()
	defer func() { close(stop); <-done }()
	for i := 0; i < 2000; i++ {
		s := h.Snap()
		var sum uint64
		for _, b := range s.Buckets {
			sum += b.Count
		}
		if sum != s.Count {
			t.Fatalf("snapshot %d: buckets sum to %d, Count is %d", i, sum, s.Count)
		}
		var buf bytes.Buffer
		if err := (&Snapshot{Hists: []*HistSnap{s}}).WritePrometheus(&buf); err != nil {
			t.Fatal(err)
		}
		prev := uint64(0)
		for _, line := range strings.Split(buf.String(), "\n") {
			if !strings.HasPrefix(line, "live_scan_cost_ns_bucket{") {
				continue
			}
			var cum uint64
			if _, err := fmt.Sscan(line[strings.LastIndexByte(line, ' ')+1:], &cum); err != nil {
				t.Fatalf("snapshot %d: %q: %v", i, line, err)
			}
			if cum < prev {
				t.Fatalf("snapshot %d: bucket ladder falls from %d to %d at %q", i, prev, cum, line)
			}
			prev = cum
		}
		if prev != s.Count {
			t.Fatalf("snapshot %d: bucket ladder ends at %d, Count is %d", i, prev, s.Count)
		}
	}
}

// TestDisabledPathAllocFree is the acceptance gate backing the
// benchmark: the nil-instrument path must not allocate, and neither
// must the enabled hot path.
func TestDisabledPathAllocFree(t *testing.T) {
	var reg *Registry
	c := reg.Counter("x")
	h := reg.Histogram("y", ClockSim)
	if n := testing.AllocsPerRun(1000, func() { c.Inc(); h.Observe(42) }); n != 0 {
		t.Fatalf("disabled path allocates %.1f per op", n)
	}
	on := NewRegistry()
	ce := on.Counter("x")
	he := on.Histogram("y", ClockSim)
	ge := on.Gauge("z")
	if n := testing.AllocsPerRun(1000, func() { ce.Inc(); he.Observe(42); ge.Update(1) }); n != 0 {
		t.Fatalf("enabled path allocates %.1f per op", n)
	}
}
