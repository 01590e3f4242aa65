// Package core implements the paper's primary contribution: the
// metrics-based IDS evaluation scorecard. It provides the full metric
// registry (every metric the paper names, across the Logistical,
// Architectural, and Performance classes), discrete 0–4 scoring with
// low/average/high anchors, observation-method tagging, flexible —
// including negative — weighting, and the weighted-score computation of
// Figure 5:
//
//	S_j = Σ_{i=1..n_j} ( U_ij · W_ij )
//
// where U_ij is the unweighted score of metric i in class j and W_ij its
// real-valued weight. The key property of the methodology is that systems
// are evaluated against this fixed standard rather than against each
// other, so an evaluation is reusable under different customer weightings.
package core

import (
	"errors"
	"fmt"
	"math"
)

// Class is the metric class, indexed as the paper indexes j.
type Class int

// Metric classes (Section 3.1).
const (
	// Logistical metrics measure expense, maintainability, manageability.
	Logistical Class = 1
	// Architectural metrics compare intended scope/architecture to the
	// deployment architecture.
	Architectural Class = 2
	// Performance metrics measure ability to do the job within the
	// monitored system's constraints.
	Performance Class = 3
)

// Classes lists all classes in index order.
var Classes = []Class{Logistical, Architectural, Performance}

// String names the class.
func (c Class) String() string {
	switch c {
	case Logistical:
		return "logistical"
	case Architectural:
		return "architectural"
	case Performance:
		return "performance"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Method is how a metric value is observed (Section 3.1): direct analysis
// in a laboratory setting, or open-source material such as vendor
// specifications and reviews. A metric may allow both.
type Method int

// Observation methods.
const (
	// ByAnalysis is direct observation in a laboratory setting or source
	// code analysis.
	ByAnalysis Method = 1 << iota
	// ByOpenSource is vendor/user documentation: specs, white papers,
	// reviews.
	ByOpenSource
)

// String names the method set.
func (m Method) String() string {
	switch m {
	case ByAnalysis:
		return "analysis"
	case ByOpenSource:
		return "open-source"
	case ByAnalysis | ByOpenSource:
		return "analysis|open-source"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// Allows reports whether method how is permitted by the set.
func (m Method) Allows(how Method) bool { return m&how != 0 }

// Score is a discrete metric rating. The paper: "We chose to use scores
// with the discrete values zero through four, with higher scores
// interpreted as more favorable ratings."
type Score int

// MinScore and MaxScore bound the discrete range.
const (
	MinScore Score = 0
	MaxScore Score = 4
)

// Valid reports whether the score is in range.
func (s Score) Valid() bool { return s >= MinScore && s <= MaxScore }

// Anchors give the scorer concrete examples of low (0), average (2), and
// high (4) ratings, which is what makes the metrics "well-defined …
// observable, reproducible, quantifiable".
type Anchors struct {
	Low     string
	Average string
	High    string
}

// Metric is one scorecard entry definition.
type Metric struct {
	// ID is the stable kebab-case identifier.
	ID string
	// Name is the paper's display name.
	Name string
	// Class places the metric in the weighting structure.
	Class Class
	// Description is the defining sentence from the paper.
	Description string
	// Methods says how the metric may be observed.
	Methods Method
	// Anchors are the low/average/high examples (may be empty for
	// metrics the paper lists without elaboration).
	Anchors Anchors
	// RealTimeNote captures the paper's stated significance to
	// distributed real-time systems, when given.
	RealTimeNote string
	// InPaperTable records whether the metric appears in Tables 1-3 (the
	// real-time-relevant subset) or only in the "defined but not included
	// in this paper" lists.
	InPaperTable bool
}

// Characteristic implements the paper's "characteristic" requirement
// check at the definition level: a metric must carry a description and,
// if tabled in the architectural or performance class, a real-time
// significance note.
func (m Metric) Characteristic() bool {
	if m.Description == "" {
		return false
	}
	if m.InPaperTable && m.Class != Logistical && m.RealTimeNote == "" {
		return false
	}
	return true
}

// Observation is one scored metric for one system under test.
type Observation struct {
	MetricID string
	Score    Score
	// How records the observation method actually used.
	How Method
	// Note documents the evidence ("measured 41k pps zero-loss").
	Note string
}

// Scorecard is a complete evaluation of one system against the registry.
type Scorecard struct {
	// System names the IDS under test.
	System string
	// Version records the evaluated release.
	Version string
	obs     map[string]Observation
	reg     *Registry
}

// NewScorecard creates an empty scorecard against the given registry.
func NewScorecard(reg *Registry, system, version string) *Scorecard {
	return &Scorecard{System: system, Version: version, obs: make(map[string]Observation), reg: reg}
}

// Registry returns the metric registry the scorecard is bound to.
func (c *Scorecard) Registry() *Registry { return c.reg }

// Set records an observation. The metric must exist, the score must be
// valid, and the method must be one the metric definition allows.
func (c *Scorecard) Set(o Observation) error {
	m, ok := c.reg.Get(o.MetricID)
	if !ok {
		return fmt.Errorf("core: unknown metric %q", o.MetricID)
	}
	if !o.Score.Valid() {
		return fmt.Errorf("core: score %d for %q outside [%d,%d]", o.Score, o.MetricID, MinScore, MaxScore)
	}
	if o.How != 0 && !m.Methods.Allows(o.How) {
		return fmt.Errorf("core: metric %q cannot be observed by %v (allows %v)", o.MetricID, o.How, m.Methods)
	}
	c.obs[o.MetricID] = o
	return nil
}

// Get returns the observation for a metric, if recorded.
func (c *Scorecard) Get(metricID string) (Observation, bool) {
	o, ok := c.obs[metricID]
	return o, ok
}

// Observations returns a copy of all recorded observations keyed by
// metric.
func (c *Scorecard) Observations() map[string]Observation {
	out := make(map[string]Observation, len(c.obs))
	for k, v := range c.obs {
		out[k] = v
	}
	return out
}

// Missing lists registry metrics with no observation, in registry order.
func (c *Scorecard) Missing() []string {
	var out []string
	for _, m := range c.reg.All() {
		if _, ok := c.obs[m.ID]; !ok {
			out = append(out, m.ID)
		}
	}
	return out
}

// Complete reports whether every registry metric is scored.
func (c *Scorecard) Complete() bool { return len(c.Missing()) == 0 }

// Weights maps metric ID to a real-valued weight. "Any consistent numeric
// system of weights can be used … Negative weights may also be used to
// help distinguish where a feature is actually counterproductive."
type Weights map[string]float64

// Validate checks that every weighted metric exists in the registry and
// all weights are finite.
func (w Weights) Validate(reg *Registry) error {
	for id, v := range w {
		if _, ok := reg.Get(id); !ok {
			return fmt.Errorf("core: weight for unknown metric %q", id)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: weight for %q is not finite", id)
		}
	}
	return nil
}

// Uniform returns weights of 1.0 for every registry metric.
func Uniform(reg *Registry) Weights {
	w := make(Weights)
	for _, m := range reg.All() {
		w[m.ID] = 1
	}
	return w
}

// ErrIncomplete is returned when scoring a scorecard that is missing
// observations for weighted metrics.
var ErrIncomplete = errors.New("core: scorecard missing observations for weighted metrics")

// ClassScore computes S_j for one class under the given weights
// (Figure 5). Metrics without weights contribute nothing; weighted
// metrics without observations are an error. It walks the registry in
// definition order in place, so scoring allocates nothing.
func (c *Scorecard) ClassScore(j Class, w Weights) (float64, error) {
	var sum float64
	for _, id := range c.reg.order {
		if c.reg.byID[id].Class != j {
			continue
		}
		wij, ok := w[id]
		if !ok || wij == 0 {
			continue
		}
		o, ok := c.obs[id]
		if !ok {
			return 0, fmt.Errorf("%w: %q", ErrIncomplete, id)
		}
		sum += float64(o.Score) * wij
	}
	return sum, nil
}

// WeightedScore is the full Figure-5 result.
type WeightedScore struct {
	System string
	// ByClass holds S_j per class.
	ByClass map[Class]float64
	// Total is Σ_j S_j.
	Total float64
}

// Evaluate computes the complete weighted score.
func (c *Scorecard) Evaluate(w Weights) (WeightedScore, error) {
	if err := w.Validate(c.reg); err != nil {
		return WeightedScore{}, err
	}
	out := WeightedScore{System: c.System, ByClass: make(map[Class]float64)}
	for _, j := range Classes {
		s, err := c.ClassScore(j, w)
		if err != nil {
			return WeightedScore{}, err
		}
		out.ByClass[j] = s
		out.Total += s
	}
	return out, nil
}

// Rank orders scorecards by Total under the given weights, best first.
// The sort is stable so equal totals keep input order, making ties
// deterministic.
func Rank(cards []*Scorecard, w Weights) ([]WeightedScore, error) {
	out := make([]WeightedScore, 0, len(cards))
	for _, c := range cards {
		s, err := c.Evaluate(w)
		if err != nil {
			return nil, fmt.Errorf("core: evaluating %q: %w", c.System, err)
		}
		out = append(out, s)
	}
	for i := 1; i < len(out); i++ {
		for k := i; k > 0 && out[k].Total > out[k-1].Total; k-- {
			out[k], out[k-1] = out[k-1], out[k]
		}
	}
	return out, nil
}
