// Package campaign is the harness's durable evaluation-campaign runner:
// it decomposes a long sweep — full product evaluations, sensitivity
// sweeps, fault-severity sweeps, trace-accuracy runs — into addressable
// experiments with deterministic IDs, journals each completed
// experiment to an append-only manifest, and on restart replays the
// journal and re-runs only what is missing or failed.
//
// Crash-safety contract: an experiment's result file is written
// atomically (temp + fsync + rename) *before* its journal line is
// appended (write + fsync), so the journal line is the commit point — a
// journaled experiment always has a complete result on disk. The final
// report is rendered exclusively from the plan and the persisted result
// payloads, never from journal bookkeeping (attempts, wall times), so a
// campaign interrupted at any instant and resumed produces a report
// byte-identical to one that ran uninterrupted with the same seed.
package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"strings"

	"repro/internal/fsio"
	"repro/internal/products"
)

// Kind names what one experiment runs.
type Kind string

const (
	// KindEval is a full product evaluation (complete scorecard).
	KindEval Kind = "eval"
	// KindSweepPoint is one sensitivity-sweep point (Figure 4).
	KindSweepPoint Kind = "sweep-point"
	// KindFaultPoint is one fault-severity point (degradation curve).
	KindFaultPoint Kind = "fault-point"
	// KindTrace is one trace-accuracy replay (Lesson 2).
	KindTrace Kind = "trace"
)

// Spec declares a campaign. It is persisted verbatim as plan.json in
// the campaign directory; the experiment list is a pure function of it,
// so a resumed campaign re-derives exactly the plan it started with.
type Spec struct {
	Name string `json:"name"`
	Seed int64  `json:"seed"`
	// Quick shrinks every experiment to smoke-test scale.
	Quick bool `json:"quick,omitempty"`
	// Products is the evaluated field; empty means every known product.
	Products []string `json:"products,omitempty"`
	// Evals runs the full scorecard evaluation per product.
	Evals bool `json:"evals,omitempty"`
	// SweepPoints > 0 adds a sensitivity sweep of that many points per
	// product, one experiment per point.
	SweepPoints int `json:"sweep_points,omitempty"`
	// FaultScenarios are fault scenario JSON paths; each is swept at
	// FaultPoints severities per product, one experiment per point.
	FaultScenarios []string `json:"fault_scenarios,omitempty"`
	FaultPoints    int      `json:"fault_points,omitempty"`
	// Traces are canned trace files replayed per product at Sensitivity,
	// which must lie in [0, 1]; 0 is a setting like any other (the
	// command's flag carries the 0.6 default).
	Traces      []string `json:"traces,omitempty"`
	Sensitivity float64  `json:"sensitivity,omitempty"`
}

func (s *Spec) applyDefaults() {
	if s.Name == "" {
		s.Name = "campaign"
	}
	if s.Seed == 0 {
		s.Seed = 11
	}
	if len(s.FaultScenarios) > 0 && s.FaultPoints == 0 {
		s.FaultPoints = 5
	}
}

// Experiment is one addressable, independently journaled unit of work.
type Experiment struct {
	// ID is deterministic: derived from the spec alone, stable across
	// plan/run/resume, and unique within the campaign.
	ID      string `json:"id"`
	Kind    Kind   `json:"kind"`
	Product string `json:"product"`
	// Index/Points locate a sweep or fault point within its curve.
	Index  int `json:"index,omitempty"`
	Points int `json:"points,omitempty"`
	// Scenario is the fault scenario path (fault points only).
	Scenario string `json:"scenario,omitempty"`
	// Trace is the trace file path (trace runs only).
	Trace string `json:"trace,omitempty"`
}

// artifact strips a path to the bare name used inside experiment IDs.
func artifact(path string) string {
	base := filepath.Base(path)
	return strings.TrimSuffix(base, filepath.Ext(base))
}

// Plan derives the campaign's experiment list. The order is
// deterministic — products in spec order, points in index order — and
// doubles as the report's section order.
func (s *Spec) Plan() ([]Experiment, error) {
	s.applyDefaults()
	if math.IsNaN(s.Sensitivity) || s.Sensitivity < 0 || s.Sensitivity > 1 {
		return nil, fmt.Errorf("campaign: sensitivity %v outside [0, 1]", s.Sensitivity)
	}
	field := s.Products
	if len(field) == 0 {
		for _, spec := range products.All() {
			field = append(field, spec.Name)
		}
	}
	seen := map[string]bool{}
	for _, name := range field {
		if _, ok := products.Find(name); !ok {
			return nil, fmt.Errorf("campaign: unknown product %q", name)
		}
		if seen[name] {
			return nil, fmt.Errorf("campaign: product %q listed twice", name)
		}
		seen[name] = true
	}

	var exps []Experiment
	if s.Evals {
		for _, p := range field {
			exps = append(exps, Experiment{ID: "eval/" + p, Kind: KindEval, Product: p})
		}
	}
	if s.SweepPoints > 0 {
		if s.SweepPoints < 2 {
			return nil, fmt.Errorf("campaign: sweep needs at least 2 points, got %d", s.SweepPoints)
		}
		for _, p := range field {
			for i := 0; i < s.SweepPoints; i++ {
				exps = append(exps, Experiment{
					ID:   fmt.Sprintf("sweep/%s/p%02dof%02d", p, i+1, s.SweepPoints),
					Kind: KindSweepPoint, Product: p, Index: i, Points: s.SweepPoints,
				})
			}
		}
	}
	for _, sc := range s.FaultScenarios {
		if s.FaultPoints < 2 {
			return nil, fmt.Errorf("campaign: fault sweep needs at least 2 points, got %d", s.FaultPoints)
		}
		for _, p := range field {
			for i := 0; i < s.FaultPoints; i++ {
				exps = append(exps, Experiment{
					ID:   fmt.Sprintf("fault/%s/%s/s%02dof%02d", artifact(sc), p, i+1, s.FaultPoints),
					Kind: KindFaultPoint, Product: p, Index: i, Points: s.FaultPoints,
					Scenario: sc,
				})
			}
		}
	}
	for _, tr := range s.Traces {
		for _, p := range field {
			exps = append(exps, Experiment{
				ID:   fmt.Sprintf("trace/%s/%s", artifact(tr), p),
				Kind: KindTrace, Product: p, Trace: tr,
			})
		}
	}
	if len(exps) == 0 {
		return nil, fmt.Errorf("campaign: empty plan — enable evals, sweeps, fault scenarios, or traces")
	}
	ids := map[string]bool{}
	for _, e := range exps {
		if ids[e.ID] {
			return nil, fmt.Errorf("campaign: duplicate experiment id %q (colliding artifact names?)", e.ID)
		}
		ids[e.ID] = true
	}
	return exps, nil
}

// planFile is the spec's location inside a campaign directory.
func planFile(dir string) string { return filepath.Join(dir, "plan.json") }

// SavePlan writes the spec atomically as the campaign's plan.json.
func SavePlan(dir string, spec *Spec) error { return SavePlanFS(fsio.OS, dir, spec) }

// SavePlanFS is SavePlan against an explicit storage seam.
func SavePlanFS(fsys fsio.FS, dir string, spec *Spec) error {
	spec.applyDefaults()
	if _, err := spec.Plan(); err != nil {
		return err
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	return fsio.WriteAtomicFS(fsys, planFile(dir), func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(spec)
	})
}

// LoadPlan reads the campaign's plan.json, which must hold exactly one
// JSON object; only whitespace may follow it.
func LoadPlan(dir string) (*Spec, error) { return loadPlanFS(fsio.OS, dir) }

func loadPlanFS(fsys fsio.FS, dir string) (*Spec, error) {
	data, err := fsys.ReadFile(planFile(dir))
	if err != nil {
		return nil, fmt.Errorf("campaign: no plan in %s (run `campaign plan` first): %w", dir, err)
	}
	var spec Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("campaign: parsing %s: %w", planFile(dir), err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("campaign: parsing %s: trailing data after the plan", planFile(dir))
	}
	// An empty list means what an absent one does, and SavePlan writes
	// neither; nil is the one form, so a plan equals its reload.
	for _, l := range []*[]string{&spec.Products, &spec.FaultScenarios, &spec.Traces} {
		if len(*l) == 0 {
			*l = nil
		}
	}
	spec.applyDefaults()
	return &spec, nil
}
