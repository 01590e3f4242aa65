package core

import (
	"encoding/json"
	"fmt"
	"io"
)

// scorecardJSON is the interchange form of a scorecard.
type scorecardJSON struct {
	System       string            `json:"system"`
	Version      string            `json:"version,omitempty"`
	Observations []observationJSON `json:"observations"`
}

type observationJSON struct {
	Metric string `json:"metric"`
	Score  int    `json:"score"`
	How    string `json:"how,omitempty"`
	Note   string `json:"note,omitempty"`
}

func methodFromString(s string) (Method, error) {
	switch s {
	case "":
		return 0, nil
	case "analysis":
		return ByAnalysis, nil
	case "open-source":
		return ByOpenSource, nil
	case "analysis|open-source":
		return ByAnalysis | ByOpenSource, nil
	default:
		return 0, fmt.Errorf("core: unknown method %q", s)
	}
}

// WriteJSON serializes the scorecard with observations in registry order.
func (c *Scorecard) WriteJSON(w io.Writer) error {
	out := scorecardJSON{System: c.System, Version: c.Version}
	for _, m := range c.reg.All() {
		if o, ok := c.obs[m.ID]; ok {
			oj := observationJSON{Metric: o.MetricID, Score: int(o.Score), Note: o.Note}
			if o.How != 0 {
				oj.How = o.How.String()
			}
			out.Observations = append(out.Observations, oj)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadScorecardJSON parses a scorecard against the given registry,
// validating every observation. The input must hold exactly one JSON
// object (trailing whitespace is allowed), and no metric may be scored
// twice.
func ReadScorecardJSON(r io.Reader, reg *Registry) (*Scorecard, error) {
	var in scorecardJSON
	dec := json.NewDecoder(r)
	if err := dec.Decode(&in); err != nil {
		return nil, fmt.Errorf("core: parsing scorecard: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("core: trailing data after scorecard")
	}
	if in.System == "" {
		return nil, fmt.Errorf("core: scorecard has no system name")
	}
	c := NewScorecard(reg, in.System, in.Version)
	for _, oj := range in.Observations {
		if _, dup := c.obs[oj.Metric]; dup {
			return nil, fmt.Errorf("core: metric %q scored twice", oj.Metric)
		}
		how, err := methodFromString(oj.How)
		if err != nil {
			return nil, err
		}
		if err := c.Set(Observation{MetricID: oj.Metric, Score: Score(oj.Score), How: how, Note: oj.Note}); err != nil {
			return nil, err
		}
	}
	return c, nil
}
