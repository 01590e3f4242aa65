package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"

	"repro/internal/fsio"
)

// Result is the persisted payload of one completed experiment: the
// compact, JSON-stable summary the campaign report renders from.
// Exactly one of the kind-specific fields is set. Payloads contain no
// wall-clock times and no maps with nondeterministic order, so the
// serialized bytes are a pure function of seed + spec.
type Result struct {
	ID      string `json:"id"`
	Kind    Kind   `json:"kind"`
	Product string `json:"product"`

	Eval  *EvalResult  `json:"eval,omitempty"`
	Point *PointResult `json:"point,omitempty"`
	Fault *FaultResult `json:"fault,omitempty"`
	Trace *TraceResult `json:"trace,omitempty"`
}

// EvalResult summarizes a full product evaluation. Scorecard is the
// core.Scorecard JSON (registry order, deterministic bytes), so the
// report can re-rank the field without re-running anything.
type EvalResult struct {
	Scorecard     json.RawMessage `json:"scorecard"`
	DetectionRate float64         `json:"detection_rate"`
	FalseAlarms   int             `json:"false_alarms"`
	ZeroLossPps   float64         `json:"zero_loss_pps"`
	LethalPps     float64         `json:"lethal_pps"`
	MeanDelayNs   int64           `json:"mean_delay_ns"`
	EER           float64         `json:"eer"`
	EERValid      bool            `json:"eer_valid"`
}

// PointResult is one sensitivity-sweep point.
type PointResult struct {
	Index       int     `json:"index"`
	Points      int     `json:"points"`
	Sensitivity float64 `json:"sensitivity"`
	TypeI       float64 `json:"type_i"`
	TypeII      float64 `json:"type_ii"`
}

// FaultResult is one fault-severity point.
type FaultResult struct {
	Scenario       string  `json:"scenario"`
	Index          int     `json:"index"`
	Points         int     `json:"points"`
	Severity       float64 `json:"severity"`
	DetectionRate  float64 `json:"detection_rate"`
	AlertsLost     uint64  `json:"alerts_lost"`
	AlertsDropped  uint64  `json:"alerts_dropped"`
	SpoolDelivered uint64  `json:"spool_delivered"`
	SensorDownNs   int64   `json:"sensor_down_ns"`
}

// TraceResult is one trace-accuracy replay.
type TraceResult struct {
	Trace           string  `json:"trace"`
	ActualIncidents int     `json:"actual_incidents"`
	Detected        int     `json:"detected"`
	FalseAlarms     int     `json:"false_alarms"`
	DetectionRate   float64 `json:"detection_rate"`
	FalsePosRatio   float64 `json:"false_pos_ratio"`
	MeanDelayNs     int64   `json:"mean_delay_ns"`
}

// encode renders the result's canonical bytes (indented JSON, fixed
// field order).
func (r *Result) encode() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("campaign: encoding result %s: %w", r.ID, err)
	}
	return append(b, '\n'), nil
}

// LoadResult reads one experiment's persisted result.
func LoadResult(dir, id string) (*Result, error) { return loadResultFS(fsio.OS, dir, id) }

func loadResultFS(fsys fsio.FS, dir, id string) (*Result, error) {
	b, err := fsys.ReadFile(resultFile(dir, id))
	if err != nil {
		return nil, fmt.Errorf("campaign: result for %s: %w", id, err)
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("campaign: parsing result for %s: %w", id, err)
	}
	if r.ID != id {
		return nil, fmt.Errorf("campaign: result file for %s claims id %s", id, r.ID)
	}
	// commit writes nothing but encode's bytes, so bytes that parse but
	// differ (a missing payload, foreign whitespace) were not committed.
	if c, err := r.encode(); err != nil || !bytes.Equal(c, b) {
		return nil, fmt.Errorf("campaign: result file for %s is not in the form commit writes", id)
	}
	return &r, nil
}

// State is a campaign directory's full picture: the plan, the journal
// verdicts, and every committed result — everything status and report
// rendering need.
type State struct {
	Spec        *Spec
	Experiments []Experiment
	Entries     map[string]Entry
	Results     map[string]*Result
}

// Load reads a campaign directory. Results are loaded only for
// journaled-done experiments; a done entry whose result file is
// missing or unreadable is an integrity error (the commit discipline
// writes results before journal lines).
func Load(dir string) (*State, error) {
	spec, err := LoadPlan(dir)
	if err != nil {
		return nil, err
	}
	exps, err := spec.Plan()
	if err != nil {
		return nil, err
	}
	entries, _, err := ReplayJournal(dir)
	if err != nil {
		return nil, err
	}
	st := &State{Spec: spec, Experiments: exps, Entries: entries, Results: map[string]*Result{}}
	for _, ex := range exps {
		if e, ok := entries[ex.ID]; ok && e.Status == StatusDone {
			res, err := LoadResult(dir, ex.ID)
			if err != nil {
				return nil, fmt.Errorf("campaign: journal says %s is done but its result is unusable: %w", ex.ID, err)
			}
			st.Results[ex.ID] = res
		}
	}
	return st, nil
}

// Done counts journaled-done experiments in the plan.
func (s *State) Done() int { return len(s.Results) }

// Complete reports whether every planned experiment is done.
func (s *State) Complete() bool { return s.Done() == len(s.Experiments) }
