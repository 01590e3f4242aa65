package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/fsio"
)

// CounterSnap is one counter's exported state.
type CounterSnap struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeSnap is one gauge's exported state.
type GaugeSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
	High  int64  `json:"high"`
}

// Snapshot is an immutable, name-sorted capture of a registry: the
// structured form that exporters serialize and that internal/eval and
// internal/report consume when deriving scorecard quantities.
type Snapshot struct {
	Counters []CounterSnap `json:"counters,omitempty"`
	Gauges   []GaugeSnap   `json:"gauges,omitempty"`
	Hists    []*HistSnap   `json:"histograms,omitempty"`
	Spans    []SpanRecord  `json:"spans,omitempty"`
}

// Snapshot captures the registry's current state. Instruments are
// sorted by name so exports are deterministic regardless of wiring
// order; spans keep record order (they are a timeline). A nil registry
// snapshots to nil.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	counters := make([]*Counter, 0, len(r.counters))
	for _, name := range sortedKeys(r.counters) {
		counters = append(counters, r.counters[name])
	}
	gauges := make([]*Gauge, 0, len(r.gauges))
	for _, name := range sortedKeys(r.gauges) {
		gauges = append(gauges, r.gauges[name])
	}
	hists := make([]*Histogram, 0, len(r.hists))
	for _, name := range sortedKeys(r.hists) {
		hists = append(hists, r.hists[name])
	}
	spans := make([]SpanRecord, len(r.spans))
	copy(spans, r.spans)
	r.mu.Unlock()

	s := &Snapshot{Spans: spans}
	for _, c := range counters {
		s.Counters = append(s.Counters, CounterSnap{Name: c.name, Value: c.Value()})
	}
	for _, g := range gauges {
		s.Gauges = append(s.Gauges, GaugeSnap{Name: g.name, Value: g.Value(), High: g.High()})
	}
	for _, h := range hists {
		s.Hists = append(s.Hists, h.Snap())
	}
	return s
}

// FSIOSnapshot exports the storage layer's package-level health
// counters as a mergeable snapshot. fsio sits below obs in the import
// graph, so it keeps raw atomics and this bridge renders them:
// fsio.dirsync_errors (tolerated-but-counted directory fsync
// failures), fsio.append_repairs (truncate-repairs after a failed
// append), and fsio.faults_injected (nonzero only under faultfs —
// a canary that a hostile-disk config leaked into production use).
func FSIOSnapshot() *Snapshot {
	st := fsio.ReadStats()
	return &Snapshot{Counters: []CounterSnap{
		{Name: "fsio.append_repairs", Value: st.AppendRepairs},
		{Name: "fsio.dirsync_errors", Value: st.DirSyncErrors},
		{Name: "fsio.faults_injected", Value: st.FaultsInjected},
	}}
}

// Counter returns the named counter's value and whether it exists. Only
// tests read it: with Gauge, it is how the simtime, eval and cli tests
// look up one series in a snapshot.
func (s *Snapshot) Counter(name string) (uint64, bool) {
	if s == nil {
		return 0, false
	}
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value, true
		}
	}
	return 0, false
}

// Gauge returns the named gauge's state and whether it exists (see
// Counter).
func (s *Snapshot) Gauge(name string) (GaugeSnap, bool) {
	if s == nil {
		return GaugeSnap{}, false
	}
	for _, g := range s.Gauges {
		if g.Name == name {
			return g, true
		}
	}
	return GaugeSnap{}, false
}

// Hist returns the named histogram summary, or nil.
func (s *Snapshot) Hist(name string) *HistSnap {
	if s == nil {
		return nil
	}
	for _, h := range s.Hists {
		if h.Name == name {
			return h
		}
	}
	return nil
}

// Prefixed returns a copy of the snapshot with every instrument and
// span name prefixed (for merging per-experiment registries into one
// dump without collisions).
func (s *Snapshot) Prefixed(prefix string) *Snapshot {
	if s == nil {
		return nil
	}
	out := &Snapshot{}
	for _, c := range s.Counters {
		c.Name = prefix + c.Name
		out.Counters = append(out.Counters, c)
	}
	for _, g := range s.Gauges {
		g.Name = prefix + g.Name
		out.Gauges = append(out.Gauges, g)
	}
	for _, h := range s.Hists {
		hc := *h
		hc.Name = prefix + hc.Name
		out.Hists = append(out.Hists, &hc)
	}
	for _, sp := range s.Spans {
		sp.Name = prefix + sp.Name
		out.Spans = append(out.Spans, sp)
	}
	return out
}

// Merge appends other's instruments and spans to s (names are assumed
// disjoint — use Prefixed when merging same-shaped registries).
func (s *Snapshot) Merge(other *Snapshot) {
	if s == nil || other == nil {
		return
	}
	s.Counters = append(s.Counters, other.Counters...)
	s.Gauges = append(s.Gauges, other.Gauges...)
	s.Hists = append(s.Hists, other.Hists...)
	s.Spans = append(s.Spans, other.Spans...)
}

// promName sanitizes a dotted metric path into a Prometheus-legal
// metric name.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name))
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promEscapeHelp escapes a HELP docstring per the exposition format:
// backslash and newline only.
func promEscapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// promEscapeLabel escapes a label value per the exposition format:
// backslash, double quote, and newline.
func promEscapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// promHeader writes one family's `# HELP` then `# TYPE` lines, in that
// order as the exposition format requires.
func promHeader(w io.Writer, name, help, typ string) error {
	_, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, promEscapeHelp(help), name, typ)
	return err
}

// WritePrometheus renders the snapshot in Prometheus text exposition
// format, conforming to the format rules: every family leads with
// `# HELP` then `# TYPE`, all of a family's samples are contiguous, no
// two samples share a labelset, and histograms emit a cumulative
// `_bucket` ladder whose `+Inf` bucket equals `_count`, plus `_sum`.
//
// The registry's dotted names and clock taxonomy don't fit Prometheus
// names, so they ride in the HELP docstring. Gauge high-water marks
// become a separate `<name>_high` gauge family; estimated histogram
// percentiles become a `<name>_q` gauge family with a `quantile`
// label (they are interpolations, not exact summaries, so they must
// not pose as the histogram itself); spans become a `<name>_span_ns`
// gauge family with one sample per record, disambiguated by a `seq`
// label.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	if s == nil {
		return nil
	}
	for _, c := range s.Counters {
		n := promName(c.Name)
		if err := promHeader(w, n, c.Name+" (counter)", "counter"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", n, c.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		n := promName(g.Name)
		if err := promHeader(w, n, g.Name+" (gauge)", "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", n, g.Value); err != nil {
			return err
		}
	}
	for _, g := range s.Gauges {
		n := promName(g.Name) + "_high"
		if err := promHeader(w, n, g.Name+" high-water mark (gauge)", "gauge"); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", n, g.High); err != nil {
			return err
		}
	}
	for _, h := range s.Hists {
		n := promName(h.Name)
		if err := promHeader(w, n, fmt.Sprintf("%s (histogram, clock=%s)", h.Name, h.Clock), "histogram"); err != nil {
			return err
		}
		cum := uint64(0)
		for _, b := range h.Buckets {
			cum += b.Count
			if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", n, b.Upper, cum); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
			n, h.Count, n, h.Sum, n, h.Count); err != nil {
			return err
		}
	}
	for _, h := range s.Hists {
		n := promName(h.Name) + "_q"
		if err := promHeader(w, n, fmt.Sprintf("%s estimated percentiles (gauge, clock=%s)", h.Name, h.Clock), "gauge"); err != nil {
			return err
		}
		for _, q := range []float64{0.5, 0.95, 0.99} {
			if _, err := fmt.Fprintf(w, "%s{quantile=\"%g\"} %d\n", n, q, h.Quantile(q)); err != nil {
				return err
			}
		}
	}
	// Spans grouped per family so a family's samples stay contiguous;
	// the seq label (record order within the family) keeps labelsets
	// unique when a stage ran more than once.
	spanFamilies := make(map[string]bool, len(s.Spans))
	var spanOrder []string
	for _, sp := range s.Spans {
		n := promName(sp.Name) + "_span_ns"
		if !spanFamilies[n] {
			spanFamilies[n] = true
			spanOrder = append(spanOrder, n)
		}
	}
	for _, fam := range spanOrder {
		seq := 0
		wroteHeader := false
		for _, sp := range s.Spans {
			if promName(sp.Name)+"_span_ns" != fam {
				continue
			}
			if !wroteHeader {
				if err := promHeader(w, fam, sp.Name+" span durations (gauge)", "gauge"); err != nil {
					return err
				}
				wroteHeader = true
			}
			if _, err := fmt.Fprintf(w, "%s{clock=\"%s\",seq=\"%d\"} %d\n",
				fam, promEscapeLabel(sp.Clock.String()), seq, sp.Dur.Nanoseconds()); err != nil {
				return err
			}
			seq++
		}
	}
	return nil
}

// jsonlEvent is one line of the JSONL export.
type jsonlEvent struct {
	Kind    string       `json:"kind"`
	Counter *CounterSnap `json:"counter,omitempty"`
	Gauge   *GaugeSnap   `json:"gauge,omitempty"`
	Hist    *HistSnap    `json:"histogram,omitempty"`
	Span    *SpanRecord  `json:"span,omitempty"`
	Clock   string       `json:"clock,omitempty"`
}

// WriteJSONL renders the snapshot as one JSON object per line — an
// event/snapshot log that downstream tooling can ingest incrementally.
func (s *Snapshot) WriteJSONL(w io.Writer) error {
	if s == nil {
		return nil
	}
	enc := json.NewEncoder(w)
	for i := range s.Counters {
		if err := enc.Encode(jsonlEvent{Kind: "counter", Counter: &s.Counters[i]}); err != nil {
			return err
		}
	}
	for i := range s.Gauges {
		if err := enc.Encode(jsonlEvent{Kind: "gauge", Gauge: &s.Gauges[i]}); err != nil {
			return err
		}
	}
	for _, h := range s.Hists {
		if err := enc.Encode(jsonlEvent{Kind: "histogram", Hist: h, Clock: h.Clock.String()}); err != nil {
			return err
		}
	}
	for i := range s.Spans {
		if err := enc.Encode(jsonlEvent{Kind: "span", Span: &s.Spans[i], Clock: s.Spans[i].Clock.String()}); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSONLFile writes the JSONL export to path atomically: readers
// never observe a torn snapshot, and a crash mid-export leaves any
// previous file intact.
func (s *Snapshot) WriteJSONLFile(path string) error {
	return fsio.WriteAtomic(path, s.WriteJSONL)
}
