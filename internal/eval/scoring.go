package eval

import (
	"context"
	"fmt"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/products"
)

// Score mappings: every function here converts a raw observation into the
// discrete 0–4 scale. Thresholds are this repository's calibration of the
// paper's qualitative anchors ("low / average / high"); their absolute
// positions are documented here and in EXPERIMENTS.md, and the relative
// ordering of products — which is what the methodology ranks on — does
// not depend on the exact cut points.

// ScoreZeroLoss maps zero-loss throughput (pps) to a score.
func ScoreZeroLoss(pps float64) core.Score {
	switch {
	case pps >= 100_000:
		return 4
	case pps >= 40_000:
		return 3
	case pps >= 15_000:
		return 2
	case pps >= 5_000:
		return 1
	default:
		return 0
	}
}

// ScoreLethalDose maps the failure rate (pps) to a score; indestructible
// within the probed range scores 4.
func ScoreLethalDose(lethalPps float64, indestructible bool) core.Score {
	if indestructible {
		return 4
	}
	switch {
	case lethalPps >= 150_000:
		return 4
	case lethalPps >= 60_000:
		return 3
	case lethalPps >= 20_000:
		return 2
	case lethalPps >= 8_000:
		return 1
	default:
		return 0
	}
}

// ScoreSystemThroughput is the architectural twin of zero-loss: maximal
// successfully-processed input rate.
func ScoreSystemThroughput(pps float64) core.Score { return ScoreZeroLoss(pps) }

// ScoreInducedLatency maps added per-packet latency to a score (lower is
// better).
func ScoreInducedLatency(d time.Duration) core.Score {
	switch {
	case d <= 10*time.Microsecond:
		return 4
	case d <= 100*time.Microsecond:
		return 3
	case d <= time.Millisecond:
		return 2
	case d <= 10*time.Millisecond:
		return 1
	default:
		return 0
	}
}

// ScoreTimeliness maps mean detection delay to a score.
func ScoreTimeliness(mean time.Duration, detectedAny bool) core.Score {
	if !detectedAny {
		return 0
	}
	switch {
	case mean <= 100*time.Millisecond:
		return 4
	case mean <= time.Second:
		return 3
	case mean <= 5*time.Second:
		return 2
	case mean <= 30*time.Second:
		return 1
	default:
		return 0
	}
}

// ScoreFalsePositiveRatio maps the Figure-3 FP ratio (per transaction) to
// a score (lower is better).
func ScoreFalsePositiveRatio(r float64) core.Score {
	switch {
	case r <= 0.001:
		return 4
	case r <= 0.01:
		return 3
	case r <= 0.05:
		return 2
	case r <= 0.15:
		return 1
	default:
		return 0
	}
}

// ScoreFalseNegative maps the per-attack miss rate to a score (lower is
// better). The per-attack view is used because the per-transaction FN
// ratio is diluted by benign transaction volume; both are reported.
func ScoreFalseNegative(missRate float64) core.Score {
	switch {
	case missRate == 0:
		return 4
	case missRate <= 0.15:
		return 3
	case missRate <= 0.35:
		return 2
	case missRate <= 0.6:
		return 1
	default:
		return 0
	}
}

// ScoreOperationalImpact maps host CPU overhead to a score. The paper's
// calibration points: ~0% (standalone network sensor) is ideal, 3-5%
// (nominal logging) is acceptable, ~20% (C2 auditing) is a real-time
// problem.
func ScoreOperationalImpact(frac float64) core.Score {
	switch {
	case frac <= 0.005:
		return 4
	case frac <= 0.05:
		return 3
	case frac <= 0.10:
		return 2
	case frac <= 0.20:
		return 1
	default:
		return 0
	}
}

// ScoreDataStorage maps stored bytes per megabyte of source traffic to a
// score (lower is better).
func ScoreDataStorage(storedPerMB float64) core.Score {
	switch {
	case storedPerMB <= 1<<10:
		return 4
	case storedPerMB <= 16<<10:
		return 3
	case storedPerMB <= 128<<10:
		return 2
	case storedPerMB <= 1<<20:
		return 1
	default:
		return 0
	}
}

// ScoreLoadBalancing scores the discipline per the paper's anchors:
// none=0 ("No load balancing"), static placement=2 ("static methods such
// as placement"), and intelligent/dynamic=4, with flow-hash between.
func ScoreLoadBalancing(k ids.BalancerKind) core.Score {
	switch k {
	case ids.BalancerDynamic:
		return 4
	case ids.BalancerFlowHash:
		return 3
	case ids.BalancerStatic:
		return 2
	default:
		return 0
	}
}

// ScoreAdjustableSensitivity scores the knob by its measured effect: both
// error types must move, in the expected directions, by a material
// amount.
func ScoreAdjustableSensitivity(e SensitivityEffect) core.Score {
	movedII := e.TypeIIRange >= 5 // ≥5 percentage points of Type II swing
	movedI := e.TypeIRange >= 0.05
	switch {
	case movedII && movedI && e.TradeoffDirectionOK:
		return 4
	case movedII && movedI:
		return 3
	case movedII || movedI:
		return 2
	default:
		return 1 // knob exists (SetSensitivity succeeded) but no effect
	}
}

// ScoreErrorReporting scores failure behaviour per the metric's anchors
// from configuration alone: the failure mode, whether a crashed sensor
// restarts, and whether a console (the watchdog/reporting path) exists.
// Failures and recoveries observed in the run do not enter the score.
func ScoreErrorReporting(cfg ids.Config) core.Score {
	base := core.Score(0)
	switch cfg.FailureMode {
	case ids.FailOpen:
		base = 2 // degrades silently but nothing hangs
	case ids.FailClosed:
		base = 1 // failure visibly blocks the network
	case ids.FailCrash:
		if cfg.RestartAfter > 0 {
			base = 3 // "fatal errors cause restart of application(s)"
		} else {
			base = 0 // hangs dead until operator action
		}
	}
	if cfg.HasConsole && base < 4 {
		base++ // failure is reported via the management channel
	}
	return base
}

// ScoreResponseChannel scores firewall/router/SNMP interaction from
// observed behaviour: exercised in the run = 4 (or 3 if exercised without
// visible effect), configured-but-idle capability = 2, console without
// the channel = 1, no console = 0.
func ScoreResponseChannel(hasConsole, policyHasChannel bool, events int, effective bool) core.Score {
	switch {
	case !hasConsole:
		return 0
	case events > 0 && effective:
		return 4
	case events > 0:
		return 3
	case policyHasChannel:
		return 2
	default:
		return 1
	}
}

// ScoreCompromiseAnalysis maps compromise-identification coverage to a
// score, with a bonus for products whose correlation names the full
// scope.
func ScoreCompromiseAnalysis(coverage float64, identifiedAny bool) core.Score {
	switch {
	case coverage >= 0.99:
		return 4
	case coverage >= 0.66:
		return 3
	case coverage >= 0.33:
		return 2
	case identifiedAny:
		return 1
	default:
		return 0
	}
}

// ScoreSurvivability maps the fault sweep's retention — detection
// capability remaining at full fault severity as a fraction of the clean
// baseline — to the 0–4 scale. The high anchor is the paper's
// "resistance to attack upon self": a product that keeps detecting while
// its own parts fail.
func ScoreSurvivability(retention float64) core.Score {
	switch {
	case retention >= 0.9:
		return 4
	case retention >= 0.7:
		return 3
	case retention >= 0.4:
		return 2
	case retention > 0.1:
		return 1
	default:
		return 0
	}
}

// ScoreGracefulDegradation maps the worst single-step detection drop
// across the severity sweep (normalized by baseline) to the 0–4 scale:
// small steps mean capability decays smoothly with severity, one large
// step means a cliff — the product fails all at once.
func ScoreGracefulDegradation(maxStepDrop float64) core.Score {
	switch {
	case maxStepDrop <= 0.1:
		return 4
	case maxStepDrop <= 0.25:
		return 3
	case maxStepDrop <= 0.5:
		return 2
	case maxStepDrop <= 0.75:
		return 1
	default:
		return 0
	}
}

// Options sizes a full product evaluation. Quick shrinks every experiment
// for tests.
type Options struct {
	Seed  int64
	Quick bool
	// Workers bounds every worker pool the evaluation fans out on — the
	// product matrix, the per-product measured metrics, and the
	// sensitivity sweeps. 0 sizes the pools to the machine; 1 forces the
	// fully serial path. Because every experiment owns its simulation and
	// derives its RNG streams from Seed alone, both settings produce
	// bit-identical scorecards.
	Workers int
	// Telemetry wires an obs registry through the accuracy testbed and
	// assembles the exportable Snapshot on each ProductEvaluation.
	// Telemetry observes and never perturbs: scorecards and results are
	// bit-identical with it on or off (the determinism guard test pins
	// this).
	Telemetry bool
	// OnSnapshot, when set alongside Telemetry, is called with each
	// product's snapshot as that product's evaluation completes — the
	// hook behind a live /metrics endpoint that accumulates products as
	// they finish. Called from worker goroutines; the callback must be
	// safe for concurrent use.
	OnSnapshot func(spec products.Spec, snap *obs.Snapshot)
}

// ProductEvaluation bundles a product's complete scorecard with the raw
// results behind every measured score.
type ProductEvaluation struct {
	Spec       products.Spec
	Card       *core.Scorecard
	Accuracy   *AccuracyResult
	Throughput *ThroughputResult
	Latency    *LatencyResult
	Impact     *ImpactResult
	Sweep      *SweepResult
	Compromise *CompromiseResult
	// Telemetry is the scorecard-grade performance summary, always
	// derived from the results above.
	Telemetry *Telemetry
	// Snapshot is the full exportable telemetry dump (component
	// instrumentation + scorecard gauges + measurement histograms).
	// Nil unless Options.Telemetry was set.
	Snapshot *obs.Snapshot
}

// EvaluateProduct runs every experiment against one product and fills a
// complete scorecard: static observations from the spec plus measured
// observations from the harness.
//
// The measured metrics — accuracy/compromise, throughput, latency, host
// impact, and the sensitivity sweep — are independent experiments: each
// builds its own simulation from opts.Seed and never shares mutable
// state with the others (compiled signature corpora are shared, but
// immutable). They therefore fan out on the bounded runner, and because
// every experiment's RNG streams derive from opts.Seed alone, the
// parallel scorecard is bit-identical to the serial one.
//
// Cancelling ctx (SIGINT, a timeout, a campaign watchdog) halts the
// in-flight simulations at the kernel's interrupt stride and returns
// the cancellation error; a partially evaluated product has no valid
// scorecard, so no partial ProductEvaluation is returned.
func EvaluateProduct(ctx context.Context, spec products.Spec, reg *core.Registry, opts Options) (*ProductEvaluation, error) {
	if opts.Seed == 0 {
		opts.Seed = 11
	}
	card := core.NewScorecard(reg, spec.Name, spec.Version)
	if err := spec.ApplyStatic(card); err != nil {
		return nil, err
	}
	ev := &ProductEvaluation{Spec: spec, Card: card}

	// Component instrumentation rides the accuracy testbed (the run with
	// a full pipeline under attack load). Only the export dump depends
	// on this registry — never a result field.
	var accReg *obs.Registry
	if opts.Telemetry {
		accReg = obs.NewRegistry()
	}

	experiments := []func(ctx context.Context) error{
		// Accuracy + timeliness + response + compromise (one big run).
		func(ctx context.Context) error {
			accCfg := TestbedConfig{Seed: opts.Seed, Obs: accReg}
			attackFor := 45 * time.Second
			strength := attack.Intensity(1)
			if opts.Quick {
				accCfg.TrainFor = 8 * time.Second
				accCfg.BackgroundPps = 250
				attackFor = 20 * time.Second
				strength = 0.5
			}
			tb, err := NewTestbed(spec, accCfg)
			if err != nil {
				return err
			}
			tb.Bind(ctx)
			acc, err := RunAccuracy(tb, 0.6, attackFor, strength)
			if err != nil {
				return err
			}
			ev.Accuracy = acc
			ev.Compromise = AnalyzeCompromise(tb, acc)
			return nil
		},
		// Throughput / lethal dose.
		func(ctx context.Context) error {
			thOpts := ThroughputOptions{Seed: opts.Seed}
			if opts.Quick {
				thOpts.Window = 100 * time.Millisecond
				thOpts.HiPps = 65536
			}
			th, err := MeasureThroughput(ctx, spec, thOpts)
			if err != nil {
				return err
			}
			ev.Throughput = th
			return nil
		},
		// Induced latency: products deploy per their nature — everything
		// is measured both ways by the ablation bench; the scorecard uses
		// the passive (mirror) deployment, the paper's common case, except
		// that the latency number still reflects any balancer cost.
		func(ctx context.Context) error {
			lat, err := MeasureInducedLatency(spec, TapMirror, opts.Seed)
			if err != nil {
				return err
			}
			ev.Latency = lat
			return nil
		},
		// Host impact.
		func(ctx context.Context) error {
			imp, err := MeasureOperationalImpact(spec, opts.Seed)
			if err != nil {
				return err
			}
			ev.Impact = imp
			return nil
		},
		// Sensitivity sweep.
		func(ctx context.Context) error {
			swOpts := SweepOptions{Seed: opts.Seed, Workers: opts.Workers}
			if opts.Quick {
				swOpts.Points = 3
				swOpts.TrainFor = 6 * time.Second
				swOpts.RunFor = 14 * time.Second
				swOpts.Pps = 200
				swOpts.Strength = 0.5
			}
			sw, err := SensitivitySweep(ctx, spec, swOpts)
			if err != nil {
				return err
			}
			ev.Sweep = sw
			return nil
		},
	}
	err := par.ForEach(ctx, len(experiments), opts.Workers, func(ctx context.Context, i int) error {
		return experiments[i](ctx)
	})
	if err != nil {
		return nil, err
	}

	if err := ev.fillMeasuredScores(); err != nil {
		return nil, err
	}

	ev.Telemetry = BuildTelemetry(ev)
	if opts.Telemetry {
		top := obs.NewRegistry()
		ev.Telemetry.Publish(top)
		detect.PublishCacheMetrics(top)
		snap := top.Snapshot()
		snap.Hists = append(snap.Hists, ev.measurementHists()...)
		snap.Merge(accReg.Snapshot().Prefixed("accuracy."))
		ev.Snapshot = snap
		if opts.OnSnapshot != nil {
			opts.OnSnapshot(spec, snap)
		}
	}
	return ev, nil
}

// fillMeasuredScores writes the 16 harness-measured observations.
func (ev *ProductEvaluation) fillMeasuredScores() error {
	card, spec := ev.Card, ev.Spec
	acc, th, lat, imp, sw := ev.Accuracy, ev.Throughput, ev.Latency, ev.Impact, ev.Sweep

	storedPerMB := 0.0
	if acc.IngestedBytes > 0 {
		storedPerMB = float64(acc.StorageBytes) / (float64(acc.IngestedBytes) / (1 << 20))
	}
	hasConsole := spec.IDS.HasConsole
	policyHas := func(a ids.ResponseAction) bool {
		for _, v := range spec.ResponsePolicy {
			if v == a {
				return true
			}
		}
		return false
	}

	set := func(id string, s core.Score, note string) error {
		return card.Set(core.Observation{MetricID: id, Score: s, How: core.ByAnalysis, Note: note})
	}
	type entry struct {
		id    string
		score core.Score
		note  string
	}
	entries := []entry{
		{core.MAdjustableSensitivity, ScoreAdjustableSensitivity(sw.Effect()),
			fmt.Sprintf("Type II swing %.1f pts, Type I swing %.2f pts across sweep", sw.Effect().TypeIIRange, sw.Effect().TypeIRange)},
		{core.MDataStorage, ScoreDataStorage(storedPerMB),
			fmt.Sprintf("%.0f bytes stored per MB of source traffic", storedPerMB)},
		{core.MScalableLoadBalancing, ScoreLoadBalancing(spec.IDS.Balancer),
			fmt.Sprintf("discipline: %v across %d sensors", spec.IDS.Balancer, spec.IDS.Sensors)},
		{core.MSystemThroughput, ScoreSystemThroughput(th.ZeroLossPps),
			fmt.Sprintf("sustained %.0f pps without loss", th.ZeroLossPps)},
		{core.MAnalysisOfCompromise, ScoreCompromiseAnalysis(ev.Compromise.Coverage, len(ev.Compromise.Identified) > 0),
			fmt.Sprintf("identified %d of %d compromised hosts", len(ev.Compromise.Identified), len(ev.Compromise.TrulyCompromised))},
		{core.MErrorReporting, ScoreErrorReporting(spec.IDS),
			fmt.Sprintf("%v, restart=%v, console=%v", spec.IDS.FailureMode, spec.IDS.RestartAfter > 0, hasConsole)},
		{core.MFirewallInteraction, ScoreResponseChannel(hasConsole, policyHas(ids.ActionFirewallBlock), acc.FirewallBlocks, acc.FilteredPackets > 0),
			fmt.Sprintf("%d blocks, %d packets filtered", acc.FirewallBlocks, acc.FilteredPackets)},
		{core.MInducedLatency, ScoreInducedLatency(lat.Induced),
			fmt.Sprintf("induced %v mean, %v p95 (%v tap)", lat.Induced, lat.InducedP95, lat.Tap)},
		{core.MZeroLossThroughput, ScoreZeroLoss(th.ZeroLossPps),
			fmt.Sprintf("%.0f pps zero loss", th.ZeroLossPps)},
		{core.MNetworkLethalDose, ScoreLethalDose(th.LethalPps, th.Indestructible),
			lethalNote(th)},
		{core.MObservedFNRatio, ScoreFalseNegative(acc.MissRate),
			fmt.Sprintf("missed %d of %d attacks (FN ratio %.5f per transaction)", acc.ActualIncidents-acc.DetectedIncidents, acc.ActualIncidents, acc.FalseNegativeRatio)},
		{core.MObservedFPRatio, ScoreFalsePositiveRatio(acc.FalsePositiveRatio),
			fmt.Sprintf("%d false alarms over %d transactions (ratio %.5f)", acc.FalseAlarms, acc.Transactions, acc.FalsePositiveRatio)},
		{core.MOperationalImpact, ScoreOperationalImpact(imp.OverheadFraction),
			fmt.Sprintf("%.1f%% host CPU, %d deadline misses", imp.OverheadFraction*100, imp.DeadlineMisses)},
		{core.MRouterInteraction, ScoreResponseChannel(hasConsole, policyHas(ids.ActionRouterRedirect), acc.RouterRedirects, acc.RouterRedirects > 0),
			fmt.Sprintf("%d redirects", acc.RouterRedirects)},
		{core.MSNMPInteraction, ScoreResponseChannel(hasConsole, policyHas(ids.ActionSNMPTrap), acc.SNMPTraps, acc.SNMPTraps > 0),
			fmt.Sprintf("%d traps", acc.SNMPTraps)},
		{core.MTimeliness, ScoreTimeliness(acc.MeanDetectionDelay, acc.DetectedIncidents > 0),
			fmt.Sprintf("mean %v, p50 %v, p95 %v, p99 %v, max %v",
				acc.MeanDetectionDelay, acc.DelayP50, acc.DelayP95, acc.DelayP99, acc.MaxDetectionDelay)},
	}
	for _, e := range entries {
		if err := set(e.id, e.score, e.note); err != nil {
			return err
		}
	}
	return nil
}

func lethalNote(th *ThroughputResult) string {
	if th.Indestructible {
		return "no failure up to the probed ceiling"
	}
	return fmt.Sprintf("sensor failure at %.0f pps", th.LethalPps)
}

// EvaluateAll evaluates every product in the field against one registry.
// Product evaluations are independent (each owns its simulations), so
// they run concurrently on the bounded runner; results keep the input
// order, so the parallel run is bit-identical to a serial one. The
// first failing product (in field order) cancels the rest and its
// error is the one returned.
//
// Cancelling ctx (SIGINT/SIGTERM, -timeout) drains gracefully: the
// completed evaluations are returned in their field slots (nil for
// products that never finished) together with the cancellation error,
// so callers can print partial scorecards with an explicit interrupted
// banner. Non-cancellation failures return no results.
func EvaluateAll(ctx context.Context, specs []products.Spec, reg *core.Registry, opts Options) ([]*ProductEvaluation, error) {
	out := make([]*ProductEvaluation, len(specs))
	err := par.ForEach(ctx, len(specs), opts.Workers, func(ctx context.Context, i int) error {
		ev, err := EvaluateProduct(ctx, specs[i], reg, opts)
		if err != nil {
			return fmt.Errorf("eval: %s: %w", specs[i].Name, err)
		}
		out[i] = ev
		return nil
	})
	if err != nil {
		if isCancel(err) {
			return out, err
		}
		return nil, err
	}
	return out, nil
}
