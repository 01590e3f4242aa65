package obs

import (
	"bufio"
	"bytes"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// promMetricName matches a legal Prometheus metric name.
var promMetricName = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

// promSample matches one sample line, capturing name, optional label
// block, and value.
var promSample = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (-?[0-9]+(?:\.[0-9]+)?|\+Inf|-Inf|NaN)$`)

// checkExposition validates text against the exposition-format rules
// this package promises: HELP-before-TYPE per family, contiguous
// family sample blocks, legal names, unique labelsets, and histogram
// bucket/_sum/_count invariants. Returns the family set seen.
func checkExposition(t *testing.T, text string) map[string]string {
	t.Helper()
	families := map[string]string{} // name -> type
	helped := map[string]bool{}
	seenSample := map[string]bool{} // name + labels
	var curFamily, curType string
	type histState struct {
		lastLe    float64
		lastCum   uint64
		infCum    uint64
		hasInf    bool
		count     uint64
		hasCount  bool
		hasSum    bool
		bucketSeq int
	}
	hists := map[string]*histState{}

	// base strips a histogram sample suffix down to its family name.
	base := func(name string) string {
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(name, suf) {
				if fam := strings.TrimSuffix(name, suf); families[fam] == "histogram" {
					return fam
				}
			}
		}
		return name
	}

	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			fields := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			name := fields[0]
			if !promMetricName.MatchString(name) {
				t.Errorf("illegal family name in HELP: %q", name)
			}
			if helped[name] {
				t.Errorf("family %s declared twice", name)
			}
			helped[name] = true
			curFamily, curType = name, ""
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			name, typ := fields[0], fields[1]
			if name != curFamily {
				t.Errorf("TYPE %s not immediately preceded by its HELP (current family %q)", name, curFamily)
			}
			if _, dup := families[name]; dup {
				t.Errorf("TYPE for family %s emitted twice", name)
			}
			families[name] = typ
			curType = typ
			if typ == "histogram" {
				hists[name] = &histState{}
			}
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Errorf("non-HELP/TYPE comment line (not exposition format): %q", line)
			continue
		}
		m := promSample.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("unparseable sample line: %q", line)
			continue
		}
		name, labels, valStr := m[1], m[2], m[3]
		fam := base(name)
		if fam != curFamily {
			t.Errorf("sample %s outside its family block (current %q): samples must be contiguous", name, curFamily)
		}
		key := name + labels
		if seenSample[key] {
			t.Errorf("duplicate sample (name+labelset): %q", key)
		}
		seenSample[key] = true

		if curType == "histogram" {
			h := hists[fam]
			val, _ := strconv.ParseUint(valStr, 10, 64)
			switch {
			case strings.HasSuffix(name, "_bucket"):
				le := labelValue(t, labels, "le")
				var leV float64
				if le == "+Inf" {
					h.hasInf = true
					h.infCum = val
					leV = 1e308
				} else {
					f, err := strconv.ParseFloat(le, 64)
					if err != nil {
						t.Errorf("bad le value %q", le)
					}
					leV = f
				}
				if h.bucketSeq > 0 && leV <= h.lastLe {
					t.Errorf("%s buckets: le %v not ascending after %v", fam, leV, h.lastLe)
				}
				if val < h.lastCum {
					t.Errorf("%s buckets not cumulative: %d after %d", fam, val, h.lastCum)
				}
				h.lastLe, h.lastCum = leV, val
				h.bucketSeq++
			case strings.HasSuffix(name, "_sum"):
				h.hasSum = true
			case strings.HasSuffix(name, "_count"):
				h.hasCount = true
				h.count = val
			default:
				t.Errorf("histogram family %s has non-histogram sample %q", fam, name)
			}
		}
	}
	for fam, h := range hists {
		if !h.hasInf || !h.hasSum || !h.hasCount {
			t.Errorf("histogram %s missing +Inf/_sum/_count (%v/%v/%v)", fam, h.hasInf, h.hasSum, h.hasCount)
		}
		if h.infCum != h.count {
			t.Errorf("histogram %s: +Inf bucket %d != _count %d", fam, h.infCum, h.count)
		}
	}
	return families
}

func labelValue(t *testing.T, labels, key string) string {
	t.Helper()
	m := regexp.MustCompile(key + `="([^"]*)"`).FindStringSubmatch(labels)
	if m == nil {
		t.Errorf("labels %q missing %s", labels, key)
		return ""
	}
	return m[1]
}

// TestPrometheusExportConformance exercises the full instrument surface
// — awkward names included — and validates the rendered text against
// the exposition-format rules.
func TestPrometheusExportConformance(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("ids.sensor-0.drops").Add(7)
	reg.Counter("9lives").Inc() // leading digit must be escaped
	reg.Gauge("queue.depth").Set(12)
	h := reg.Histogram("scan.lat_ns", ClockWall)
	for i := int64(1); i <= 100; i++ {
		h.Observe(i * 1000)
	}
	reg.Histogram("empty.lat_ns", ClockSim) // registered, never observed
	reg.StartSpan("stage.one").End()
	reg.StartSpan("stage.one").End() // second span, same name: needs unique labelset
	reg.StartSpan("stage.two").End()

	var buf bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	fams := checkExposition(t, buf.String())

	for name, typ := range map[string]string{
		"ids_sensor_0_drops": "counter",
		"_9lives":            "counter",
		"queue_depth":        "gauge",
		"queue_depth_high":   "gauge",
		"scan_lat_ns":        "histogram",
		"scan_lat_ns_q":      "gauge",
		"empty_lat_ns":       "histogram",
		"stage_one_span_ns":  "gauge",
		"stage_two_span_ns":  "gauge",
	} {
		if got := fams[name]; got != typ {
			t.Errorf("family %s: type %q, want %q\n%s", name, got, typ, buf.String())
		}
	}
	// An empty histogram still satisfies the invariants: +Inf 0, count 0.
	if !strings.Contains(buf.String(), `empty_lat_ns_bucket{le="+Inf"} 0`) {
		t.Errorf("empty histogram missing zero +Inf bucket:\n%s", buf.String())
	}
}

func TestPromEscaping(t *testing.T) {
	if got := promEscapeHelp("a\\b\nc"); got != `a\\b\nc` {
		t.Errorf("help escape = %q", got)
	}
	if got := promEscapeLabel("a\"b\\c\nd"); got != `a\"b\\c\nd` {
		t.Errorf("label escape = %q", got)
	}
	if got := promName("9a.b-c"); got != "_9a_b_c" {
		t.Errorf("promName = %q", got)
	}
}

// TestHistogramQuantileEdgeCases pins the estimator on the degenerate
// shapes: no samples, one sample, and every sample past the last bound
// (all mass in the overflow bucket).
func TestHistogramQuantileEdgeCases(t *testing.T) {
	t.Run("empty", func(t *testing.T) {
		s := NewHistogram("e", ClockNone, []int64{10, 20}).Snap()
		if s.Count != 0 || s.Sum != 0 {
			t.Fatalf("empty snap: %+v", s)
		}
		for _, q := range []float64{0, 0.5, 0.99, 1} {
			if got := s.Quantile(q); got != 0 {
				t.Errorf("empty q%.2f = %d, want 0", q, got)
			}
		}
		if len(s.Buckets) != 0 {
			t.Errorf("empty snap has buckets: %+v", s.Buckets)
		}
	})
	t.Run("single-sample", func(t *testing.T) {
		h := NewHistogram("s", ClockNone, []int64{10, 20})
		h.Observe(15)
		s := h.Snap()
		for _, q := range []float64{0, 0.25, 0.5, 0.95, 1} {
			if got := s.Quantile(q); got != 15 {
				t.Errorf("single q%.2f = %d, want 15", q, got)
			}
		}
		if s.Min != 15 || s.Max != 15 {
			t.Errorf("single min/max = %d/%d", s.Min, s.Max)
		}
	})
	t.Run("all-in-overflow", func(t *testing.T) {
		h := NewHistogram("o", ClockNone, []int64{10, 20})
		h.Observe(100)
		h.Observe(200)
		h.Observe(300)
		s := h.Snap()
		// Every estimate must stay clamped inside observed data.
		for _, q := range []float64{0, 0.1, 0.5, 0.9, 1} {
			got := s.Quantile(q)
			if got < 100 || got > 300 {
				t.Errorf("overflow q%.2f = %d, outside [100,300]", q, got)
			}
		}
		if s.Quantile(0) != 100 || s.Quantile(1) != 300 {
			t.Errorf("overflow extremes = %d/%d", s.Quantile(0), s.Quantile(1))
		}
		if len(s.Buckets) != 1 || s.Buckets[0].Count != 3 {
			t.Fatalf("overflow buckets: %+v", s.Buckets)
		}
		// The synthetic overflow bucket upper is the observed max, so the
		// rendered le ladder stays ascending and finite.
		if s.Buckets[0].Upper != 300 {
			t.Errorf("overflow bucket upper = %d, want observed max 300", s.Buckets[0].Upper)
		}
	})
}

// TestSnapshotMergeNameCollision pins Merge's documented behavior when
// names are NOT disjoint: both entries are retained (append semantics,
// no summing), and the accessors resolve to the first-merged entry.
// Registering through Sub views of one registry is the supported way
// to avoid the collision.
func TestSnapshotMergeNameCollision(t *testing.T) {
	mk := func(v uint64) *Snapshot {
		reg := NewRegistry()
		reg.Counter("dup.count").Add(v)
		reg.Gauge("dup.depth").Set(int64(v))
		reg.Histogram("dup.lat_ns", ClockNone).Observe(int64(v))
		return reg.Snapshot()
	}
	a, b := mk(1), mk(2)
	a.Merge(b)
	if len(a.Counters) != 2 || len(a.Gauges) != 2 || len(a.Hists) != 2 {
		t.Fatalf("merge collapsed colliding entries: %d/%d/%d", len(a.Counters), len(a.Gauges), len(a.Hists))
	}
	if v, _ := a.Counter("dup.count"); v != 1 {
		t.Errorf("accessor after collision = %d, want first-merged 1", v)
	}
	if g, _ := a.Gauge("dup.depth"); g.Value != 1 {
		t.Errorf("gauge accessor after collision = %d, want 1", g.Value)
	}
	if h := a.Hist("dup.lat_ns"); h == nil || h.Sum != 1 {
		t.Errorf("hist accessor after collision = %+v, want first-merged", h)
	}
	// The same shapes registered through Sub views stay collision-free.
	reg := NewRegistry()
	reg.Sub("a.").Counter("dup.count").Add(1)
	reg.Sub("b.").Counter("dup.count").Add(2)
	if v, ok := reg.Snapshot().Counter("b.dup.count"); !ok || v != 2 {
		t.Errorf("views lost b.dup.count: %d %v", v, ok)
	}
}
