package eval

import (
	"context"
	"fmt"
	"time"

	"repro/internal/attack"
	"repro/internal/faults"
	"repro/internal/ids"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/products"
)

// This file runs the fault-injection experiments: one accuracy run under
// a declarative fault scenario (RunFaultScenario) and the severity sweep
// that traces a product's degradation curve (FaultSweep). The curves are
// the measured evidence behind the paper's class-2 architectural metrics
// that ordinary runs cannot observe: survivability (how much detection
// capability remains when the product's own parts fail) and graceful
// degradation (whether capability decays smoothly with fault severity or
// falls off a cliff).
//
// Determinism contract: RunAccuracy is RunFaultScenario with a nil
// scenario, and an empty scenario enables no resilience layer and arms
// no injector events, so a no-fault run is byte-identical to a run
// without the fault harness by construction (TestNoFaultDeterminism
// pins it). A non-empty scenario adds only fixed-time injector events;
// identical seed + scenario + severity reproduce the run byte for byte.

// FaultRunResult is one accuracy run under a fault scenario.
type FaultRunResult struct {
	// Severity is the sweep knob in [0,1] this run was injected at.
	Severity float64
	// Accuracy is the full accuracy result, scored exactly as a clean run.
	Accuracy *AccuracyResult
	// Applied lists every fault the injector scheduled.
	Applied []faults.Applied

	// Pipeline fault accounting (see ids.Stats): every alert that failed
	// to traverse is in exactly one bucket.
	AlertsLost     uint64
	AlertsDropped  uint64
	SpoolDelivered uint64
	MgmtDropped    uint64
	SensorDowntime time.Duration
	// Resilience snapshots the self-healing layer's counters (zero when
	// the scenario did not enable it).
	Resilience ids.ResilienceStats
}

// RunFaultScenario performs one accuracy experiment with the scenario's
// faults injected, scaled by severity in [0,1]: train on clean traffic,
// then run background plus the standard campaign for attackFor, then
// score the monitor's reports against ground truth. The injector arms at
// the start of the attack phase, so event offsets in the scenario are
// relative to the end of training. A nil or empty scenario injects
// nothing.
func RunFaultScenario(tb *Testbed, sc *faults.Scenario, sensitivity float64, attackFor time.Duration, strength attack.Intensity, severity float64) (*FaultRunResult, error) {
	runs, err := runDeployments(tb, sc, []float64{sensitivity}, attackFor, strength, severity)
	if err != nil {
		return nil, err
	}
	return runs[0], nil
}

// runDeployments is RunFaultScenario for every deployment on tb at once:
// one network run, with deployment k set to sens[k] after training and
// scored against the one ground truth. A scenario needs a testbed of one
// deployment, since its link faults hit the shared network.
func runDeployments(tb *Testbed, sc *faults.Scenario, sens []float64, attackFor time.Duration, strength attack.Intensity, severity float64) ([]*FaultRunResult, error) {
	if err := validateTapMode(tb.Cfg.Tap); err != nil {
		return nil, err
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	if len(tb.deps) > 1 && !sc.Empty() {
		return nil, fmt.Errorf("eval: fault scenario %s on a testbed of %d deployments", sc.Name, len(tb.deps))
	}
	resilient := sc != nil && sc.Resilience && !sc.Empty()
	if resilient {
		tb.IDS.EnableResilience()
	}
	if err := tb.Train(); err != nil {
		return nil, err
	}
	for k, d := range tb.deps {
		if err := d.ids.SetSensitivity(sens[k]); err != nil {
			return nil, err
		}
	}
	start := tb.Sim.Now()

	inj, err := faults.NewInjector(tb.Sim, sc, severity, faults.Targets{
		Links:  tb.faultLinks(),
		IDS:    tb.IDS,
		Flight: tb.Cfg.Obs.Flight(),
	})
	if err != nil {
		return nil, err
	}
	if err := inj.Arm(); err != nil {
		return nil, err
	}
	if resilient {
		tb.IDS.StartHealthLoop()
	}

	camp := attack.NewCampaign(tb.AttackContext())
	if err := camp.SpreadAcross(start+2*time.Second, attackFor-4*time.Second, attack.StandardScenarios(strength)); err != nil {
		return nil, err
	}
	tb.Sim.RunUntil(start + attackFor)
	tb.IDS.StopHealthLoop()
	tb.Drain()
	if err := tb.Interrupted(); err != nil {
		return nil, err
	}

	truth := camp.Incidents()
	runs := make([]*FaultRunResult, len(tb.deps))
	for k, d := range tb.deps {
		d.ids.Flush()
		acc, err := scoreAccuracy(tb, d.ids, sens[k], truth, int(tb.Gen.SessionsStarted))
		if err != nil {
			return nil, err
		}
		acc.IngestedBytes = tb.Gen.BytesEmitted
		st := d.ids.Stats()
		runs[k] = &FaultRunResult{
			Severity:       severity,
			Accuracy:       acc,
			Applied:        inj.Applied,
			AlertsLost:     st.AlertsLost,
			AlertsDropped:  st.AlertsDropped,
			SpoolDelivered: st.SpoolDelivered,
			MgmtDropped:    st.MgmtDropped,
			SensorDowntime: st.SensorDowntime,
			Resilience:     d.ids.ResilienceStats(),
		}
	}
	return runs, nil
}

// faultLinks names the injectable links of this testbed for scenario
// targets: the SPAN feed ("span", mirror mode only) and the two trunks.
func (tb *Testbed) faultLinks() map[string]*netsim.Link {
	links := map[string]*netsim.Link{}
	if l := tb.MirrorLink(); l != nil {
		links["span"] = l
	}
	if l := tb.Top.TrunkLink(); l != nil {
		links["lan-trunk"] = l
	}
	if l := tb.Top.ExtTrunkLink(); l != nil {
		links["ext-trunk"] = l
	}
	return links
}

// FaultSweepOptions sizes a severity sweep.
type FaultSweepOptions struct {
	Seed        int64
	Points      int     // severity steps from 0 to 1 inclusive (default 5)
	Sensitivity float64 // detection sensitivity (default 0.5)
	TrainFor    time.Duration
	AttackFor   time.Duration // default 45s
	Pps         float64
	Strength    attack.Intensity
	// Workers bounds the sweep's worker pool: 0 sizes it to the machine,
	// 1 forces the serial path (the determinism reference).
	Workers int
	// Obs, when non-nil, instruments every point's testbed with one
	// shared registry (counters aggregate across severities) and routes
	// fault onsets into its flight recorder. Observation only: the sweep
	// is bit-identical with or without it.
	Obs *obs.Registry
}

func (o *FaultSweepOptions) applyDefaults() {
	if o.Seed == 0 {
		o.Seed = 7
	}
	if o.Points == 0 {
		o.Points = 5
	}
	if o.Sensitivity == 0 {
		o.Sensitivity = 0.5
	}
	if o.AttackFor == 0 {
		o.AttackFor = 45 * time.Second
	}
	if o.Strength == 0 {
		o.Strength = 1
	}
}

// FaultSweepResult is one product's degradation curve: the same seed and
// scenario at increasing severity.
type FaultSweepResult struct {
	Product  string
	Scenario *faults.Scenario
	Points   []*FaultRunResult
}

// FaultSweep runs the scenario at Points severities spaced evenly across
// [0,1], each on a fresh testbed with the same seed, so severity is the
// only varying factor. Point 0 (severity 0) is the clean baseline the
// curve is normalized against. Points are independent simulations and
// fan out across the shared bounded runner; results assemble in index
// order, so the parallel sweep is bit-identical to a serial one.
//
// Cancelling ctx halts in-flight points at the kernel's interrupt
// stride and skips unstarted ones; the partial curve (nil entries for
// points that never completed) is returned alongside the cancellation
// error so callers can report progress. Any other failure returns no
// result.
func FaultSweep(ctx context.Context, spec products.Spec, sc *faults.Scenario, opts FaultSweepOptions) (*FaultSweepResult, error) {
	opts.applyDefaults()
	if opts.Points < 2 {
		return nil, fmt.Errorf("eval: fault sweep needs at least 2 points, got %d", opts.Points)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	points := make([]*FaultRunResult, opts.Points)
	err := par.ForEach(ctx, opts.Points, opts.Workers, func(ctx context.Context, i int) error {
		res, err := FaultPointAt(ctx, spec, sc, opts, i)
		if err != nil {
			return err
		}
		points[i] = res
		return nil
	})
	if err != nil {
		if isCancel(err) {
			return &FaultSweepResult{Product: spec.Name, Scenario: sc, Points: points}, err
		}
		return nil, err
	}
	return &FaultSweepResult{Product: spec.Name, Scenario: sc, Points: points}, nil
}

// FaultPointAt runs the scenario at the i-th severity step
// (i/(Points-1)) on a fresh testbed. It is the unit of work a campaign
// journals and resumes individually: the point produced here is
// bit-identical to the same index of a full FaultSweep with the same
// options.
func FaultPointAt(ctx context.Context, spec products.Spec, sc *faults.Scenario, opts FaultSweepOptions, i int) (*FaultRunResult, error) {
	opts.applyDefaults()
	if i < 0 || i >= opts.Points {
		return nil, fmt.Errorf("eval: fault point %d out of range [0,%d)", i, opts.Points)
	}
	sev := float64(i) / float64(opts.Points-1)
	tb, err := NewTestbed(spec, TestbedConfig{
		Seed: opts.Seed, TrainFor: opts.TrainFor, BackgroundPps: opts.Pps,
		Obs: opts.Obs,
	})
	if err != nil {
		return nil, err
	}
	tb.Bind(ctx)
	return RunFaultScenario(tb, sc, opts.Sensitivity, opts.AttackFor, opts.Strength, sev)
}

// BaselineDetection is the severity-0 detection rate the curve is
// normalized against.
func (s *FaultSweepResult) BaselineDetection() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	return s.Points[0].Accuracy.DetectionRate
}

// Retention is detection capability remaining at full severity as a
// fraction of baseline — the survivability observation. A product that
// detected nothing clean retains nothing.
func (s *FaultSweepResult) Retention() float64 {
	base := s.BaselineDetection()
	if base <= 0 || len(s.Points) == 0 {
		return 0
	}
	return s.Points[len(s.Points)-1].Accuracy.DetectionRate / base
}

// MaxStepDrop is the largest detection-rate fall between adjacent
// severity steps, normalized by baseline — the graceful-degradation
// observation (small steps = smooth decay, one big step = a cliff).
func (s *FaultSweepResult) MaxStepDrop() float64 {
	base := s.BaselineDetection()
	if base <= 0 {
		return 0
	}
	var worst float64
	for i := 1; i < len(s.Points); i++ {
		d := (s.Points[i-1].Accuracy.DetectionRate - s.Points[i].Accuracy.DetectionRate) / base
		if d > worst {
			worst = d
		}
	}
	return worst
}

// Publish writes the sweep's survivability evidence into reg as
// "scorecard.*" gauges, alongside the class-3 quantities Telemetry
// publishes. Ratios are in parts per million to stay integral. No-op on
// a nil registry.
func (s *FaultSweepResult) Publish(reg *obs.Registry) {
	if s == nil || reg == nil || len(s.Points) == 0 {
		return
	}
	last := s.Points[len(s.Points)-1]
	reg.Gauge("scorecard.survivability_retention_ppm").Set(int64(s.Retention() * 1e6))
	reg.Gauge("scorecard.degradation_max_step_ppm").Set(int64(s.MaxStepDrop() * 1e6))
	reg.Gauge("scorecard.survivability_score").Set(int64(SurvivabilityBand.Score(s.Retention())))
	reg.Gauge("scorecard.graceful_degradation_score").Set(int64(GracefulDegradationBand.Score(s.MaxStepDrop())))
	reg.Gauge("scorecard.fault_alerts_lost").Set(int64(last.AlertsLost))
	reg.Gauge("scorecard.fault_alerts_dropped").Set(int64(last.AlertsDropped))
	reg.Gauge("scorecard.fault_spool_delivered").Set(int64(last.SpoolDelivered))
	reg.Gauge("scorecard.fault_mgmt_dropped").Set(int64(last.MgmtDropped))
	reg.Gauge("scorecard.fault_sensor_downtime_ns").Set(int64(last.SensorDowntime))
}
