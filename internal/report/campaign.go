package report

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/eval"
)

// CampaignReport renders a campaign directory's state: per-experiment
// results in plan order, assembled sweep and degradation curves, a
// weighted ranking when every evaluation completed, and the list of
// permanently failed experiments.
//
// Determinism contract: the report is a pure function of the plan and
// the persisted result payloads. Journal bookkeeping — attempts, wall
// times, retry history — never appears, so a campaign interrupted and
// resumed any number of times renders byte-identical to an
// uninterrupted run with the same seed.
func CampaignReport(w io.Writer, st *campaign.State, reg *core.Registry) error {
	fmt.Fprintf(w, "campaign %q (seed %d): %d/%d experiments complete\n",
		st.Spec.Name, st.Spec.Seed, st.Done(), len(st.Experiments))

	if err := campaignEvals(w, st, reg); err != nil {
		return err
	}
	if err := campaignSweeps(w, st); err != nil {
		return err
	}
	if err := campaignFaults(w, st); err != nil {
		return err
	}
	if err := campaignTraces(w, st); err != nil {
		return err
	}

	var failed []string
	for _, ex := range st.Experiments {
		if e, ok := st.Entries[ex.ID]; ok && e.Status != campaign.StatusDone {
			failed = append(failed, fmt.Sprintf("%s (%s: %s)", ex.ID, e.Status, e.Error))
		}
	}
	if len(failed) > 0 {
		fmt.Fprintf(w, "\nfailed experiments:\n")
		for _, f := range failed {
			fmt.Fprintf(w, "  %s\n", f)
		}
	}
	return nil
}

// campaignEvals prints the scorecard summaries and, when the full
// field evaluated, the uniform-weight ranking.
func campaignEvals(w io.Writer, st *campaign.State, reg *core.Registry) error {
	var cards []*core.Scorecard
	printed := false
	for _, ex := range st.Experiments {
		if ex.Kind != campaign.KindEval {
			continue
		}
		res := st.Results[ex.ID]
		if res == nil || res.Eval == nil {
			cards = nil // incomplete field: no ranking
			continue
		}
		if !printed {
			fmt.Fprintf(w, "\n--- product evaluations ---\n")
			printed = true
		}
		e := res.Eval
		fmt.Fprintf(w, "%-14s detection %5.1f%%  false alarms %3d  zero-loss %7.0f pps  mean delay %v",
			res.Product, e.DetectionRate*100, e.FalseAlarms, e.ZeroLossPps,
			time.Duration(e.MeanDelayNs).Round(time.Millisecond))
		if e.EERValid {
			fmt.Fprintf(w, "  EER %.2f", e.EER)
		}
		fmt.Fprintln(w)
		if cards != nil {
			card, err := core.ReadScorecardJSON(bytes.NewReader(e.Scorecard), reg)
			if err != nil {
				return fmt.Errorf("report: scorecard for %s: %w", res.Product, err)
			}
			if card.Complete() {
				cards = append(cards, card)
			} else {
				cards = nil
			}
		}
	}
	if len(cards) > 1 {
		ranked, err := core.Rank(cards, core.Uniform(reg))
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\nuniform-weight ranking:\n")
		return Ranking(w, ranked)
	}
	return nil
}

// campaignSweeps assembles completed per-point experiments into the
// Figure-4 curves, computing the EER once a product's curve is whole.
func campaignSweeps(w io.Writer, st *campaign.State) error {
	type curve struct {
		product string
		points  []eval.SweepPoint
		total   int
	}
	var order []string
	curves := map[string]*curve{}
	for _, ex := range st.Experiments {
		if ex.Kind != campaign.KindSweepPoint {
			continue
		}
		c := curves[ex.Product]
		if c == nil {
			c = &curve{product: ex.Product, total: ex.Points}
			curves[ex.Product] = c
			order = append(order, ex.Product)
		}
		if res := st.Results[ex.ID]; res != nil && res.Point != nil {
			c.points = append(c.points, eval.SweepPoint{
				Sensitivity: res.Point.Sensitivity,
				TypeI:       res.Point.TypeI,
				TypeII:      res.Point.TypeII,
			})
		}
	}
	for _, name := range order {
		c := curves[name]
		if len(c.points) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n--- sensitivity sweep: %s (%d/%d points) ---\n", c.product, len(c.points), c.total)
		sw := eval.AssembleSweep(c.product, c.points)
		if len(c.points) < c.total {
			// Partial curve: rows only, no EER claim over a hole.
			for _, p := range sw.Points {
				fmt.Fprintf(w, "  sensitivity %.2f  type-I %.3f%%  type-II %.1f%%\n", p.Sensitivity, p.TypeI, p.TypeII)
			}
			continue
		}
		if err := ErrorCurves(w, sw); err != nil {
			return err
		}
	}
	return nil
}

// campaignFaults prints each scenario/product degradation curve with
// the survivability observations once the curve is whole.
func campaignFaults(w io.Writer, st *campaign.State) error {
	type curve struct {
		scenario, product string
		points            []*campaign.FaultResult
		total             int
	}
	var order []string
	curves := map[string]*curve{}
	for _, ex := range st.Experiments {
		if ex.Kind != campaign.KindFaultPoint {
			continue
		}
		key := ex.ID
		if i := strings.LastIndex(key, "/"); i > 0 {
			key = key[:i]
		}
		c := curves[key]
		if c == nil {
			c = &curve{product: ex.Product, total: ex.Points}
			curves[key] = c
			order = append(order, key)
		}
		if res := st.Results[ex.ID]; res != nil && res.Fault != nil {
			c.scenario = res.Fault.Scenario
			c.points = append(c.points, res.Fault)
		}
	}
	for _, key := range order {
		c := curves[key]
		if len(c.points) == 0 {
			continue
		}
		fmt.Fprintf(w, "\n--- fault sweep: %s (%d/%d points) ---\n", key, len(c.points), c.total)
		for _, p := range c.points {
			fmt.Fprintf(w, "  severity %.2f  detection %5.1f%%  alerts lost %d dropped %d  spool %d  sensor down %v\n",
				p.Severity, p.DetectionRate*100, p.AlertsLost, p.AlertsDropped,
				p.SpoolDelivered, time.Duration(p.SensorDownNs).Round(time.Millisecond))
		}
		if len(c.points) < c.total {
			continue
		}
		// The survivability arithmetic is the fault sweep's own, over
		// the points' detection rates.
		sw := &eval.FaultSweepResult{}
		for _, p := range c.points {
			sw.Points = append(sw.Points, &eval.FaultRunResult{Accuracy: &eval.AccuracyResult{DetectionRate: p.DetectionRate}})
		}
		if sw.BaselineDetection() > 0 {
			fmt.Fprintf(w, "  retention %.0f%% of baseline, worst step drop %.0f%%\n", sw.Retention()*100, sw.MaxStepDrop()*100)
		}
	}
	return nil
}

// campaignTraces prints the trace-accuracy table.
func campaignTraces(w io.Writer, st *campaign.State) error {
	printed := false
	for _, ex := range st.Experiments {
		if ex.Kind != campaign.KindTrace {
			continue
		}
		res := st.Results[ex.ID]
		if res == nil || res.Trace == nil {
			continue
		}
		if !printed {
			fmt.Fprintf(w, "\n--- trace replays ---\n")
			printed = true
		}
		t := res.Trace
		fmt.Fprintf(w, "%-20s %-14s detected %d/%d  false alarms %d  FP ratio %.4f  mean delay %v\n",
			t.Trace, res.Product, t.Detected, t.ActualIncidents, t.FalseAlarms,
			t.FalsePosRatio, time.Duration(t.MeanDelayNs).Round(time.Millisecond))
	}
	return nil
}
