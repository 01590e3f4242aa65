package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// defaultDurationBounds is the shared log-spaced bucket ladder for
// duration histograms: eight buckets per decade from 100ns to 100s
// (factor 10^(1/8) ≈ 1.33), which bounds the relative interpolation
// error of a percentile estimate at one bucket width (~33%) and keeps a
// histogram at 74 fixed counters. Computed once; never mutated.
var defaultDurationBounds = makeDurationBounds()

func makeDurationBounds() []int64 {
	const perDecade = 8
	lo, hi := 100.0, 100e9 // 100ns .. 100s in ns
	var bounds []int64
	for i := 0; ; i++ {
		v := lo * math.Pow(10, float64(i)/perDecade)
		if v > hi*1.0001 {
			break
		}
		b := int64(math.Round(v))
		if n := len(bounds); n > 0 && b <= bounds[n-1] {
			continue
		}
		bounds = append(bounds, b)
	}
	return bounds
}

// Histogram is a fixed-bucket histogram with atomic counters: Observe
// is lock-free, allocation-free, and safe for concurrent use. Values
// above the last bound land in an overflow bucket; min/max track the
// exact extremes so quantile estimates can be clamped to observed data.
// A nil *Histogram is a valid no-op instrument.
type Histogram struct {
	name   string
	clock  Clock
	bounds []int64 // ascending upper bounds (inclusive)
	counts []atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
	min    atomic.Int64
	max    atomic.Int64
}

// NewHistogram builds a standalone (unregistered) histogram. bounds are
// ascending inclusive upper bounds; nil selects the default duration
// ladder. Standalone histograms serve measurement sites that always
// collect (e.g. latency percentiles feeding a scorecard) independent of
// whether a registry is wired.
func NewHistogram(name string, clock Clock, bounds []int64) *Histogram {
	if bounds == nil {
		bounds = defaultDurationBounds
	}
	h := &Histogram{
		name:   name,
		clock:  clock,
		bounds: bounds,
		counts: make([]atomic.Uint64, len(bounds)+1),
	}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= v; sort.Search is avoided on
	// the hot path (it takes a closure).
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if h.bounds[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	atomicMin(&h.min, v)
	atomicMax(&h.max, v)
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Name returns the histogram's name ("" for nil).
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Count returns the number of observations (0 for nil). Only tests read
// it; the campaign tests use it to count checkpoint writes.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Snap captures a consistent-enough view for reporting. (Observations
// racing a snapshot may be partially included; snapshots are taken at
// run boundaries where the simulation is quiescent.)
func (h *Histogram) Snap() *HistSnap {
	if h == nil {
		return nil
	}
	s := &HistSnap{
		Name:  h.name,
		Clock: h.clock,
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
	}
	if s.Count == 0 {
		return s
	}
	s.Min = h.min.Load()
	s.Max = h.max.Load()
	s.Buckets = make([]Bucket, 0, len(h.counts))
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		upper := s.Max
		if i < len(h.bounds) {
			upper = h.bounds[i]
		}
		lower := int64(0)
		if i > 0 {
			lower = h.bounds[i-1]
		}
		s.Buckets = append(s.Buckets, Bucket{Lower: lower, Upper: upper, Count: n})
	}
	return s
}

// Bucket is one populated histogram bucket: values in (Lower, Upper].
type Bucket struct {
	Lower int64  `json:"lower"`
	Upper int64  `json:"upper"`
	Count uint64 `json:"count"`
}

// HistSnap is an immutable histogram summary for exports and reports.
type HistSnap struct {
	Name    string   `json:"name"`
	Clock   Clock    `json:"-"`
	Count   uint64   `json:"count"`
	Sum     int64    `json:"sum"`
	Min     int64    `json:"min,omitempty"`
	Max     int64    `json:"max,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Quantile estimates the q-quantile (q in [0,1]) by linear
// interpolation inside the covering bucket, clamped to the observed
// min/max so estimates never stray outside real data.
func (s *HistSnap) Quantile(q float64) int64 {
	if s == nil || s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	rank := q * float64(s.Count)
	var cum float64
	for _, b := range s.Buckets {
		next := cum + float64(b.Count)
		if next >= rank {
			lower, upper := b.Lower, b.Upper
			if lower < s.Min {
				lower = s.Min
			}
			if upper > s.Max {
				upper = s.Max
			}
			if upper <= lower {
				return upper
			}
			frac := (rank - cum) / float64(b.Count)
			v := float64(lower) + frac*float64(upper-lower)
			return int64(math.Round(v))
		}
		cum = next
	}
	return s.Max
}

// QuantileDuration is Quantile for nanosecond-valued histograms.
func (s *HistSnap) QuantileDuration(q float64) time.Duration {
	return time.Duration(s.Quantile(q))
}
