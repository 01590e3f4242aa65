// Package requirements implements Section 3.3 of the paper: deriving
// scorecard weights from formalized user requirements. The user lists
// requirements in a partial order from least to most important, assigns
// the least important the lowest weight, weights the rest in proportion
// to relative importance (duplicates allowed, since the order is
// partial), and then each metric's weight is the sum of the weights of
// the requirements it contributes to (Figure 6).
package requirements

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/core"
)

// Requirement is one formalized user requirement.
type Requirement struct {
	// Name states the requirement, in positive form where possible
	// ("Requirements should be stated in positive form … to reduce
	// unnecessary negative weights").
	Name string
	// Weight is the importance weight assigned after ordering.
	Weight float64
	// Contributes lists the metric IDs this requirement maps onto.
	Contributes []string
}

// Negative marks requirements that express a counterproductive feature;
// their weight applies negatively (the paper's escape hatch when a
// requirement cannot be converted to positive form).
type Set struct {
	// Requirements in partial order, least important first.
	Requirements []Requirement
}

// Validate checks weights are positive-ordered and all contributed
// metrics exist in the registry.
func (s *Set) Validate(reg *core.Registry) error {
	if len(s.Requirements) == 0 {
		return fmt.Errorf("requirements: empty set")
	}
	prev := 0.0
	for i, r := range s.Requirements {
		if r.Name == "" {
			return fmt.Errorf("requirements: requirement %d has no name", i)
		}
		if r.Weight < prev {
			return fmt.Errorf("requirements: %q (weight %v) breaks the least-to-most ordering (previous %v)",
				r.Name, r.Weight, prev)
		}
		prev = r.Weight
		if len(r.Contributes) == 0 {
			return fmt.Errorf("requirements: %q contributes to no metrics", r.Name)
		}
		for _, id := range r.Contributes {
			if _, ok := reg.Get(id); !ok {
				return fmt.Errorf("requirements: %q contributes to unknown metric %q", r.Name, id)
			}
		}
	}
	return nil
}

// AssignOrdinalWeights implements the suggested algorithm's first half:
// given requirement names grouped by importance (least important group
// first), assign weight 1 to the first group, 2 to the second, and so on.
// Duplicate weights within a group reflect the partial ordering. No
// command calls it: it is the ordinal step of the Figure 6 algorithm
// (F6 in DESIGN.md), pinned by TestAssignOrdinalWeights.
func AssignOrdinalWeights(groups [][]string) []Requirement {
	var out []Requirement
	for gi, group := range groups {
		for _, name := range group {
			out = append(out, Requirement{Name: name, Weight: float64(gi + 1)})
		}
	}
	return out
}

// DeriveWeights implements the second half: "each metric is assigned a
// weight equal to the sum of the weights of the requirements it
// contributes to." Metrics no requirement touches get weight zero, which
// Evaluate treats as excluded.
func DeriveWeights(s *Set, reg *core.Registry) (core.Weights, error) {
	if err := s.Validate(reg); err != nil {
		return nil, err
	}
	w := make(core.Weights)
	for _, m := range reg.All() {
		w[m.ID] = 0
	}
	for _, r := range s.Requirements {
		for _, id := range r.Contributes {
			w[id] += r.Weight
		}
	}
	return w, nil
}

// RealTimeEmphasis returns the paper's recommended weighting posture for
// real-time systems: "emphasis should be placed on speed and accuracy of
// attack recognition and on the ability of the IDS to automatically react
// via firewall, router, SNMP, etc."
func RealTimeEmphasis() *Set {
	return &Set{Requirements: []Requirement{
		{
			Name: "Manageable across the cluster", Weight: 1,
			Contributes: []string{core.MDistributedManagement, core.MEaseOfConfiguration, core.MMultiSensorSupport},
		},
		{
			Name: "No interference with real-time deadlines", Weight: 2,
			Contributes: []string{core.MOperationalImpact, core.MInducedLatency, core.MPlatformRequirements},
		},
		{
			Name: "Keeps up with cluster traffic", Weight: 2,
			Contributes: []string{core.MSystemThroughput, core.MZeroLossThroughput, core.MScalableLoadBalancing, core.MNetworkLethalDose},
		},
		{
			Name: "Automatic near-real-time reaction", Weight: 3,
			Contributes: []string{core.MFirewallInteraction, core.MRouterInteraction, core.MSNMPInteraction, core.MTimeliness},
		},
		{
			Name: "Fast, accurate attack recognition", Weight: 3,
			Contributes: []string{core.MTimeliness, core.MObservedFNRatio, core.MObservedFPRatio, core.MAdjustableSensitivity},
		},
	}}
}

// DistributedEmphasis returns the paper's posture for high-trust
// distributed systems: "emphasis on reducing the false negative ratio to
// the lowest possible level accepting an increased false positive alert
// ratio in the process. Logging of historical traffic is also key."
func DistributedEmphasis() *Set {
	return &Set{Requirements: []Requirement{
		{
			Name: "Tolerate extra false alarms", Weight: 1,
			Contributes: []string{core.MAdjustableSensitivity},
		},
		{
			Name: "Historical logging for post-hoc unraveling", Weight: 2,
			Contributes: []string{core.MDataStorage, core.MAnalysisOfCompromise},
		},
		{
			Name: "Catch the initial compromise and isolate it", Weight: 3,
			Contributes: []string{core.MTimeliness, core.MFirewallInteraction, core.MHostBased, core.MMultiSensorSupport},
		},
		{
			Name: "Lowest possible false negative ratio", Weight: 4,
			Contributes: []string{core.MObservedFNRatio},
		},
	}}
}

// Figure6Example reconstructs the paper's requirement-to-metric weighting
// illustration: three requirements with weights 1, 2.5, and 3 mapping
// onto seven metrics, where mapped metrics receive the sum of their
// contributors' weights and untouched metrics receive 0. (The figure's
// exact arrows are not recoverable from the text, so the mapping below is
// a faithful instance of the algorithm with the published requirement
// weights; EXPERIMENTS.md records this substitution.)
func Figure6Example(reg *core.Registry) (*Set, core.Weights, error) {
	s := &Set{Requirements: []Requirement{
		{
			Name: "Central administration", Weight: 1,
			Contributes: []string{core.MDistributedManagement},
		},
		{
			Name: "No performance interference", Weight: 2.5,
			Contributes: []string{core.MOperationalImpact, core.MInducedLatency, core.MSystemThroughput},
		},
		{
			Name: "Prompt, accurate detection", Weight: 3,
			Contributes: []string{core.MTimeliness, core.MObservedFNRatio, core.MSystemThroughput},
		},
	}}
	w, err := DeriveWeights(s, reg)
	if err != nil {
		return nil, nil, err
	}
	return s, w, nil
}

// ---- JSON interchange for cmd/scorecard ----

type setJSON struct {
	Requirements []reqJSON `json:"requirements"`
}

type reqJSON struct {
	Name        string   `json:"name"`
	Weight      float64  `json:"weight"`
	Contributes []string `json:"contributes"`
}

// WriteJSON serializes the set.
func (s *Set) WriteJSON(w io.Writer) error {
	out := setJSON{}
	for _, r := range s.Requirements {
		out.Requirements = append(out.Requirements, reqJSON(r))
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadJSON parses a requirement set. The input must hold exactly one
// JSON object; only whitespace may follow it.
func ReadJSON(r io.Reader) (*Set, error) {
	var in setJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("requirements: parsing: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("requirements: trailing data after the set")
	}
	s := &Set{}
	for _, rq := range in.Requirements {
		s.Requirements = append(s.Requirements, Requirement(rq))
	}
	return s, nil
}

// Describe renders the set as an indented list for reports.
func (s *Set) Describe() string {
	var b strings.Builder
	for _, r := range s.Requirements {
		fmt.Fprintf(&b, "  %-45s w=%-4g -> %s\n", r.Name, r.Weight, strings.Join(r.Contributes, ", "))
	}
	return b.String()
}

// SortedNonZero returns the metric IDs with nonzero derived weight,
// heaviest first (for report rendering).
func SortedNonZero(w core.Weights) []string {
	var ids []string
	for id, v := range w {
		if v != 0 {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool {
		if w[ids[i]] != w[ids[j]] {
			return w[ids[i]] > w[ids[j]]
		}
		return ids[i] < ids[j]
	})
	return ids
}
