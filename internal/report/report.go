// Package report renders evaluation artifacts as text: the paper's metric
// tables (Tables 1–3), scorecard comparison matrices, weighted rankings,
// the Figure-4 error-rate curves (as a data table and an ASCII plot), and
// CSV series for external plotting.
package report

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/ids"
)

// table is a minimal aligned-column text table builder.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) addRow(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) render(w io.Writer) error {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		return strings.TrimRight(b.String(), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.header)); err != nil {
		return err
	}
	var sep []string
	for _, width := range widths {
		sep = append(sep, strings.Repeat("-", width))
	}
	if _, err := fmt.Fprintln(w, line(sep)); err != nil {
		return err
	}
	for _, r := range t.rows {
		if _, err := fmt.Fprintln(w, line(r)); err != nil {
			return err
		}
	}
	return nil
}

// titleCase upper-cases the first letter (strings.Title is deprecated and
// overkill for single words).
func titleCase(s string) string {
	if s == "" {
		return s
	}
	return strings.ToUpper(s[:1]) + s[1:]
}

// wrap breaks s into lines of at most width characters on word
// boundaries.
func wrap(s string, width int) []string {
	words := strings.Fields(s)
	if len(words) == 0 {
		return []string{""}
	}
	var lines []string
	cur := words[0]
	for _, wd := range words[1:] {
		if len(cur)+1+len(wd) > width {
			lines = append(lines, cur)
			cur = wd
			continue
		}
		cur += " " + wd
	}
	return append(lines, cur)
}

// MetricTable renders the paper's Table for one class: metric name and
// definition, restricted to the tabled (real-time-relevant) subset unless
// full is set.
func MetricTable(w io.Writer, reg *core.Registry, class core.Class, full bool) error {
	if _, err := fmt.Fprintf(w, "%s metrics\n\n", titleCase(class.String())); err != nil {
		return err
	}
	t := &table{header: []string{"Metric", "Definition"}}
	for _, m := range reg.ByClass(class) {
		if !full && !m.InPaperTable {
			continue
		}
		lines := wrap(m.Description, 64)
		t.addRow(m.Name, lines[0])
		for _, l := range lines[1:] {
			t.addRow("", l)
		}
	}
	return t.render(w)
}

// ScoreMatrix renders the metric × product score matrix for one class,
// with each product's unweighted class sum.
func ScoreMatrix(w io.Writer, reg *core.Registry, class core.Class, cards []*core.Scorecard, tabledOnly bool) error {
	header := []string{"Metric"}
	for _, c := range cards {
		header = append(header, c.System)
	}
	t := &table{header: header}
	sums := make([]int, len(cards))
	for _, m := range reg.ByClass(class) {
		if tabledOnly && !m.InPaperTable {
			continue
		}
		row := []string{m.Name}
		for i, c := range cards {
			if o, ok := c.Get(m.ID); ok {
				row = append(row, fmt.Sprintf("%d", o.Score))
				sums[i] += int(o.Score)
			} else {
				row = append(row, "-")
			}
		}
		t.addRow(row...)
	}
	sumRow := []string{"(unweighted sum)"}
	for _, s := range sums {
		sumRow = append(sumRow, fmt.Sprintf("%d", s))
	}
	t.addRow(sumRow...)
	return t.render(w)
}

// Ranking renders the Figure-5 weighted evaluation: per-class S_j and
// total per product, best first.
func Ranking(w io.Writer, scores []core.WeightedScore) error {
	t := &table{header: []string{"Rank", "System", "S1 (logistical)", "S2 (architectural)", "S3 (performance)", "Total"}}
	for i, s := range scores {
		t.addRow(
			fmt.Sprintf("%d", i+1), s.System,
			fmt.Sprintf("%.1f", s.ByClass[core.Logistical]),
			fmt.Sprintf("%.1f", s.ByClass[core.Architectural]),
			fmt.Sprintf("%.1f", s.ByClass[core.Performance]),
			fmt.Sprintf("%.1f", s.Total),
		)
	}
	return t.render(w)
}

// AccuracySummary renders one accuracy run.
func AccuracySummary(w io.Writer, r *eval.AccuracyResult) error {
	t := &table{header: []string{"Quantity", "Value"}}
	t.addRow("transactions |T|", fmt.Sprintf("%d", r.Transactions))
	t.addRow("actual intrusions |A|", fmt.Sprintf("%d", r.ActualIncidents))
	t.addRow("detected", fmt.Sprintf("%d", r.DetectedIncidents))
	t.addRow("false alarms |D-A|", fmt.Sprintf("%d", r.FalseAlarms))
	t.addRow("false positive ratio |D-A|/|T|", fmt.Sprintf("%.5f", r.FalsePositiveRatio))
	t.addRow("false negative ratio |A-D|/|T|", fmt.Sprintf("%.5f", r.FalseNegativeRatio))
	t.addRow("miss rate |A-D|/|A|", fmt.Sprintf("%.3f", r.MissRate))
	t.addRow("mean detection delay", r.MeanDetectionDelay.String())
	t.addRow("detection delay p50/p95/p99",
		fmt.Sprintf("%v / %v / %v", r.DelayP50, r.DelayP95, r.DelayP99))
	t.addRow("max detection delay", r.MaxDetectionDelay.String())
	for _, tech := range r.Techniques() {
		mark := "missed"
		if r.ByTechnique[tech] {
			mark = "detected"
		}
		t.addRow("  "+tech, mark)
	}
	return t.render(w)
}

// ErrorCurves renders the Figure-4 data: Type I and Type II error
// percentages per sensitivity, the EER, and an ASCII plot.
func ErrorCurves(w io.Writer, s *eval.SweepResult) error {
	t := &table{header: []string{"Sensitivity", "Type I (FP) %", "Type II (FN) %"}}
	for _, p := range s.Points {
		t.addRow(
			fmt.Sprintf("%.2f", p.Sensitivity),
			fmt.Sprintf("%.3f", p.TypeI),
			fmt.Sprintf("%.1f", p.TypeII),
		)
	}
	if err := t.render(w); err != nil {
		return err
	}
	if s.EERValid {
		if _, err := fmt.Fprintf(w, "\nEqual Error Rate: sensitivity %.2f at %.2f%% error\n\n", s.EER, s.EERError); err != nil {
			return err
		}
	} else {
		if _, err := fmt.Fprintf(w, "\nNo Type I / Type II crossover in the swept range\n\n"); err != nil {
			return err
		}
	}
	return asciiCurves(w, s)
}

// asciiCurves draws both error curves on a shared character grid:
// '1' = Type I, '2' = Type II, 'X' = overlap.
func asciiCurves(w io.Writer, s *eval.SweepResult) error {
	const rows, cols = 16, 61
	maxY := 0.0
	for _, p := range s.Points {
		if p.TypeI > maxY {
			maxY = p.TypeI
		}
		if p.TypeII > maxY {
			maxY = p.TypeII
		}
	}
	if maxY == 0 {
		maxY = 1
	}
	grid := make([][]byte, rows)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", cols))
	}
	plot := func(x, y float64, ch byte) {
		ci := int(x * float64(cols-1))
		ri := rows - 1 - int(y/maxY*float64(rows-1))
		if ri < 0 {
			ri = 0
		}
		if ri >= rows {
			ri = rows - 1
		}
		if grid[ri][ci] != ' ' && grid[ri][ci] != ch {
			grid[ri][ci] = 'X'
		} else {
			grid[ri][ci] = ch
		}
	}
	for _, p := range s.Points {
		plot(p.Sensitivity, p.TypeI, '1')
		plot(p.Sensitivity, p.TypeII, '2')
	}
	if _, err := fmt.Fprintf(w, "%%Error (max %.1f%%)   1=Type I (false positive)  2=Type II (false negative)\n", maxY); err != nil {
		return err
	}
	for _, row := range grid {
		if _, err := fmt.Fprintf(w, "|%s\n", string(row)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "+%s\n 0%s sensitivity %s1\n",
		strings.Repeat("-", cols), strings.Repeat(" ", (cols-14)/2), strings.Repeat(" ", (cols-14)/2)); err != nil {
		return err
	}
	return nil
}

// SweepCSV writes the Figure-4 series as CSV for external plotting.
func SweepCSV(w io.Writer, s *eval.SweepResult) error {
	if _, err := fmt.Fprintln(w, "sensitivity,type1_fp_pct,type2_fn_pct"); err != nil {
		return err
	}
	for _, p := range s.Points {
		if _, err := fmt.Fprintf(w, "%.3f,%.5f,%.3f\n", p.Sensitivity, p.TypeI, p.TypeII); err != nil {
			return err
		}
	}
	return nil
}

// EvaluationReport renders one product's full evaluation: measured
// observations with notes, grouped by class.
func EvaluationReport(w io.Writer, ev *eval.ProductEvaluation) error {
	if _, err := fmt.Fprintf(w, "=== %s %s — %s ===\n\n", ev.Spec.Name, ev.Spec.Version, ev.Spec.Summary); err != nil {
		return err
	}
	reg := ev.Card.Registry()
	for _, class := range core.Classes {
		t := &table{header: []string{titleCase(class.String()) + " metric", "Score", "Evidence"}}
		for _, m := range reg.ByClass(class) {
			if !m.InPaperTable {
				continue
			}
			o, ok := ev.Card.Get(m.ID)
			if !ok {
				t.addRow(m.Name, "-", "")
				continue
			}
			t.addRow(m.Name, fmt.Sprintf("%d", o.Score), o.Note)
		}
		if err := t.render(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// TelemetrySummary renders the scorecard-grade telemetry distilled from
// one product evaluation: the class-3 quantities in raw physical units.
func TelemetrySummary(w io.Writer, t *eval.Telemetry) error {
	if t == nil {
		_, err := fmt.Fprintln(w, "no telemetry collected")
		return err
	}
	tab := &table{header: []string{"Telemetry (" + t.Product + ")", "Value"}}
	tab.addRow("detection delay p50/p95/p99",
		fmt.Sprintf("%v / %v / %v", t.DelayP50, t.DelayP95, t.DelayP99))
	tab.addRow("pipeline drop ratio", fmt.Sprintf("%.5f (%d tap + %d sensor of %d offered)",
		t.DropRatio, t.TapDrops, t.SensorDrops, t.Ingested+t.TapDrops))
	tab.addRow("scan throughput", fmt.Sprintf("%.0f pps (%d processed)", t.ScanThroughputPps, t.Processed))
	tab.addRow("operator workload", fmt.Sprintf("%d incidents, %d notifications, %d false alarms",
		t.Incidents, t.Notifications, t.FalseAlarms))
	tab.addRow("induced latency mean/p95",
		fmt.Sprintf("%v / %v", t.InducedLatency, t.InducedLatencyP95))
	return tab.render(w)
}

// IntentProfiles renders the analyzer's second-order attacker analysis:
// campaign stage, scope, and intent mix per attacker.
func IntentProfiles(w io.Writer, profiles []*ids.AttackerProfile) error {
	if len(profiles) == 0 {
		_, err := fmt.Fprintln(w, "no attributed attackers")
		return err
	}
	t := &table{header: []string{"Attacker", "Stage", "Victims", "Incidents", "Intent mix"}}
	for _, p := range profiles {
		var mix []string
		for intent := ids.IntentUnknown; intent <= ids.IntentExfiltration; intent++ {
			if n := p.Intents[intent]; n > 0 {
				mix = append(mix, fmt.Sprintf("%v×%d", intent, n))
			}
		}
		t.addRow(
			p.Attacker.String(), p.Stage.String(),
			fmt.Sprintf("%d", p.Victims), fmt.Sprintf("%d", p.Incidents),
			strings.Join(mix, ", "),
		)
	}
	return t.render(w)
}

// FaultSweepReport renders one product's degradation curve: detection
// capability, timeliness, and pipeline fault accounting per severity
// step, followed by the survivability and graceful-degradation evidence.
// Output is fully deterministic — the faultsweep golden files pin it.
func FaultSweepReport(w io.Writer, s *eval.FaultSweepResult) error {
	if _, err := fmt.Fprintf(w, "=== fault sweep: %s under %q ===\n", s.Product, s.Scenario.Name); err != nil {
		return err
	}
	if s.Scenario.Description != "" {
		if _, err := fmt.Fprintf(w, "%s\n", s.Scenario.Description); err != nil {
			return err
		}
	}
	resilience := "off"
	if s.Scenario.Resilience {
		resilience = "on"
	}
	if _, err := fmt.Fprintf(w, "events: %d, resilience: %s\n\n", len(s.Scenario.Events), resilience); err != nil {
		return err
	}
	t := &table{header: []string{
		"Severity", "Detect %", "FN ratio", "Delay p50/p95",
		"Lost", "Dropped", "Spooled-out", "Mgmt lost", "Downtime",
	}}
	for _, p := range s.Points {
		t.addRow(
			fmt.Sprintf("%.2f", p.Severity),
			fmt.Sprintf("%.1f", p.Accuracy.DetectionRate*100),
			fmt.Sprintf("%.5f", p.Accuracy.FalseNegativeRatio),
			fmt.Sprintf("%v / %v", p.Accuracy.DelayP50, p.Accuracy.DelayP95),
			fmt.Sprintf("%d", p.AlertsLost),
			fmt.Sprintf("%d", p.AlertsDropped),
			fmt.Sprintf("%d", p.SpoolDelivered),
			fmt.Sprintf("%d", p.MgmtDropped),
			p.SensorDowntime.String(),
		)
	}
	if err := t.render(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "\nretention at full severity: %.1f%% of baseline (survivability score %d)\n",
		s.Retention()*100, eval.SurvivabilityBand.Score(s.Retention())); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "worst step drop: %.1f%% of baseline (graceful degradation score %d)\n",
		s.MaxStepDrop()*100, eval.GracefulDegradationBand.Score(s.MaxStepDrop())); err != nil {
		return err
	}
	last := s.Points[len(s.Points)-1]
	if rs := last.Resilience; rs.HealthChecks > 0 {
		if _, err := fmt.Fprintf(w, "self-healing at full severity: %d health checks, %d rerouted, %d spooled, %d redelivered, %d retries\n",
			rs.HealthChecks, rs.Rerouted, rs.Spooled, rs.SpoolDelivered, rs.Retries); err != nil {
			return err
		}
	}
	if len(last.Applied) > 0 {
		if _, err := fmt.Fprintln(w, "\ninjected at full severity:"); err != nil {
			return err
		}
		at := &table{header: []string{"Kind", "Target", "At", "Until", "Effective"}}
		for _, a := range last.Applied {
			until := "-"
			if a.Until > 0 {
				until = a.Until.String()
			}
			target := a.Target
			if target == "" {
				target = "ids"
			}
			at.addRow(a.Kind, target, a.At.String(), until, fmt.Sprintf("%.2f", a.Effective))
		}
		if err := at.render(w); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// FaultSweepCSV emits the degradation curve for external plotting.
func FaultSweepCSV(w io.Writer, s *eval.FaultSweepResult) error {
	if _, err := fmt.Fprintln(w, "severity,detection_rate,fn_ratio,delay_p50_ns,delay_p95_ns,alerts_lost,alerts_dropped,spool_delivered,mgmt_dropped,sensor_downtime_ns"); err != nil {
		return err
	}
	for _, p := range s.Points {
		if _, err := fmt.Fprintf(w, "%.3f,%.5f,%.5f,%d,%d,%d,%d,%d,%d,%d\n",
			p.Severity, p.Accuracy.DetectionRate, p.Accuracy.FalseNegativeRatio,
			int64(p.Accuracy.DelayP50), int64(p.Accuracy.DelayP95),
			p.AlertsLost, p.AlertsDropped, p.SpoolDelivered, p.MgmtDropped,
			int64(p.SensorDowntime)); err != nil {
			return err
		}
	}
	return nil
}
