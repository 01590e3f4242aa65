package eval_test

// External-package tests for the fault-injection harness's cross-layer
// contracts (report imports eval, so byte-level rendering comparisons
// cannot live in package eval):
//
//  1. No-faults determinism guard: RunFaultScenario with an empty
//     scenario renders byte-identically to RunAccuracy — the fault
//     harness compiled in but unconfigured changes nothing.
//  2. Seeded reproducibility: the same scenario, seed, and severity grid
//     produce a byte-identical fault-sweep report across two runs, and
//     each shipped scenario reproduces its golden curve.
//  3. The shipped span-degrade example traces a monotone degradation
//     curve, and pipeline faults never lose alerts silently.

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/products"
	"repro/internal/report"
)

var update = flag.Bool("update", false, "rewrite the fault goldens from this run")

// quickFaultOpts is the sweep that `faultsweep -quick -points 3 -seed 11`
// runs.
func quickFaultOpts() eval.FaultSweepOptions {
	return eval.FaultSweepOptions{
		Seed: 11, Points: 3, TrainFor: 8 * time.Second,
		AttackFor: 20 * time.Second, Pps: 300,
	}
}

func quickTestbedCfg() eval.TestbedConfig {
	return eval.TestbedConfig{Seed: 11, TrainFor: 8 * time.Second, BackgroundPps: 300}
}

// renderFaultAccuracy renders every accuracy quantity the user sees plus the
// raw pipeline counters, so a byte comparison catches any perturbation.
func renderFaultAccuracy(t *testing.T, acc *eval.AccuracyResult) string {
	t.Helper()
	var buf bytes.Buffer
	if err := report.AccuracySummary(&buf, acc); err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&buf, "raw: %d %d %d %d %d %d %d %d %v %d %d\n",
		acc.IngestedPkts, acc.ProcessedPkts, acc.SensorDrops, acc.TapDrops,
		acc.SensorFailures, acc.Notifications, acc.ReportedIncidents,
		acc.FalseAlarms, acc.SensorBusy, acc.StorageBytes, acc.IngestedBytes)
	return buf.String()
}

func TestNoFaultDeterminism(t *testing.T) {
	// The guard: an empty scenario takes the exact RunAccuracy code path.
	// Everything observable — the rendered summary and the raw pipeline
	// counters — must be byte-identical with the harness in the loop.
	spec := products.TrueSecure()

	tbA, err := eval.NewTestbed(spec, quickTestbedCfg())
	if err != nil {
		t.Fatal(err)
	}
	plain, err := eval.RunAccuracy(tbA, 0.5, 20*time.Second, 1)
	if err != nil {
		t.Fatal(err)
	}

	tbB, err := eval.NewTestbed(spec, quickTestbedCfg())
	if err != nil {
		t.Fatal(err)
	}
	faulted, err := eval.RunFaultScenario(tbB, &faults.Scenario{Name: "baseline"}, 0.5, 20*time.Second, 1, 1)
	if err != nil {
		t.Fatal(err)
	}

	if a, b := renderFaultAccuracy(t, plain), renderFaultAccuracy(t, faulted.Accuracy); a != b {
		t.Fatalf("empty scenario perturbed the run:\n--- RunAccuracy ---\n%s\n--- RunFaultScenario(empty) ---\n%s", a, b)
	}
	if len(faulted.Applied) != 0 {
		t.Fatalf("empty scenario applied %d faults", len(faulted.Applied))
	}
	if faulted.AlertsLost != 0 || faulted.AlertsDropped != 0 || faulted.SpoolDelivered != 0 ||
		faulted.MgmtDropped != 0 || faulted.SensorDowntime != 0 {
		t.Fatalf("empty scenario accumulated fault accounting: %+v", faulted)
	}
	if tbB.IDS.ResilienceEnabled() {
		t.Fatal("empty scenario switched the resilience layer on")
	}
}

func TestFaultSweepReproducible(t *testing.T) {
	// Identical seed + scenario + severity grid must produce a
	// byte-identical report across two full sweeps.
	sc, err := faults.Load("../../examples/faults/pipeline-outage.json")
	if err != nil {
		t.Fatal(err)
	}
	spec := products.TrueSecure()
	render := func() string {
		sw, err := eval.FaultSweep(context.Background(), spec, sc, quickFaultOpts())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := report.FaultSweepReport(&buf, sw); err != nil {
			t.Fatal(err)
		}
		if err := report.FaultSweepCSV(&buf, sw); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first, second := render(), render()
	if first != second {
		t.Fatalf("fault sweep not reproducible:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
}

// TestFaultGoldens pins each shipped fault scenario to its golden
// degradation curve under examples/faults/golden, the report
// `faultsweep -quick -points 3 -seed 11` prints for TrueSecure. On a
// mismatch it names the first differing line; with -update it rewrites
// the goldens instead.
func TestFaultGoldens(t *testing.T) {
	paths, err := filepath.Glob("../../examples/faults/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fault scenarios found (%v)", err)
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			sc, err := faults.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			sw, err := eval.FaultSweep(context.Background(), products.TrueSecure(), sc, quickFaultOpts())
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			if err := report.FaultSweepReport(&got, sw); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("../../examples/faults/golden", name+".txt")
			if *update {
				if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			g, w := strings.SplitAfter(got.String(), "\n"), strings.SplitAfter(string(want), "\n")
			line := func(lines []string, i int) string {
				if i < len(lines) {
					return lines[i]
				}
				return "<end of output>"
			}
			for i := 0; i < len(g) || i < len(w); i++ {
				if line(g, i) != line(w, i) {
					t.Fatalf("%s: first difference at line %d:\nwant: %q\n got: %q", golden, i+1, line(w, i), line(g, i))
				}
			}
		})
	}
}

func TestFaultSweepMonotoneDegradation(t *testing.T) {
	// The shipped span-degrade scenario must trace a weakly monotone
	// degradation curve: detection never improves as severity rises, and
	// full severity is strictly worse than baseline.
	sc, err := faults.Load("../../examples/faults/span-degrade.json")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := eval.FaultSweep(context.Background(), products.TrueSecure(), sc, quickFaultOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sw.Points); i++ {
		prev, cur := sw.Points[i-1].Accuracy.DetectionRate, sw.Points[i].Accuracy.DetectionRate
		if cur > prev {
			t.Fatalf("detection improved with severity: %.3f@%.2f -> %.3f@%.2f",
				prev, sw.Points[i-1].Severity, cur, sw.Points[i].Severity)
		}
	}
	base, worst := sw.BaselineDetection(), sw.Points[len(sw.Points)-1].Accuracy.DetectionRate
	if base <= 0 {
		t.Fatal("baseline detected nothing; scenario cannot show degradation")
	}
	if worst >= base {
		t.Fatalf("full severity (%.3f) not worse than baseline (%.3f)", worst, base)
	}
	if sw.Retention() >= 1 {
		t.Fatalf("retention %.3f, want < 1", sw.Retention())
	}
}

func TestAlertLossAccountedWithoutResilience(t *testing.T) {
	// With no resilience layer, a severed alert path must account every
	// lost alert — the pipeline never loses alerts silently.
	sc := &faults.Scenario{
		Name: "severed",
		Events: []faults.Event{
			{At: faults.Duration(2 * time.Second), Duration: faults.Duration(10 * time.Second), Kind: faults.KindAlertLoss},
		},
	}
	tb, err := eval.NewTestbed(products.TrueSecure(), quickTestbedCfg())
	if err != nil {
		t.Fatal(err)
	}
	res, err := eval.RunFaultScenario(tb, sc, 0.5, 20*time.Second, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.AlertsLost == 0 {
		t.Fatal("10s alert-loss window lost nothing — fault not reaching the pipeline")
	}
	if res.SpoolDelivered != 0 || res.Resilience.Spooled != 0 {
		t.Fatalf("resilience-off run spooled alerts: %+v", res.Resilience)
	}
}
