package eval

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/products"
)

// Score bands: each scalar metric's raw observation maps onto the
// discrete 0–4 scale through one Band. The edges are this repository's
// calibration of the paper's qualitative anchors ("low / average /
// high"); EXPERIMENTS.md documents how far product ordering depends on
// their exact positions.

// Band is one scalar metric's raw→score mapping: its unit and four
// edges, from the score-4 edge down to the score-1 edge. The edges'
// order gives the direction: descending edges reward high raw values,
// ascending edges low ones. Every edge is inclusive — a raw value on an
// edge earns that edge's score — and a value past the score-1 edge, or
// NaN, scores 0. A strict edge "> x" is written above(x).
type Band struct {
	Unit  string
	Edges [4]float64
}

// Score maps raw onto the 0–4 scale.
func (b Band) Score(raw float64) core.Score {
	lowerIsBetter := b.Edges[0] < b.Edges[3]
	for i, edge := range b.Edges {
		if lowerIsBetter && raw <= edge || !lowerIsBetter && raw >= edge {
			return core.MaxScore - core.Score(i)
		}
	}
	return core.MinScore
}

// above is the least float64 greater than x, so an inclusive edge at
// above(x) is the strict edge "> x".
func above(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }

var (
	// ZeroLossBand scores the highest offered rate sustained without
	// loss. System Throughput, its architectural twin (maximal
	// successfully-processed input rate), reads the same band.
	ZeroLossBand = Band{"pps", [4]float64{100_000, 40_000, 15_000, 5_000}}
	// LethalDoseBand scores the rate at which a sensor fails; a product
	// indestructible within the probed range scores 4 without it.
	LethalDoseBand = Band{"pps", [4]float64{150_000, 60_000, 20_000, 8_000}}
	// InducedLatencyBand scores the mean latency added per packet.
	InducedLatencyBand = Band{"ns", [4]float64{
		float64(10 * time.Microsecond), float64(100 * time.Microsecond),
		float64(time.Millisecond), float64(10 * time.Millisecond)}}
	// TimelinessBand scores the mean detection delay; a product that
	// detected nothing scores 0 without it.
	TimelinessBand = Band{"ns", [4]float64{
		float64(100 * time.Millisecond), float64(time.Second),
		float64(5 * time.Second), float64(30 * time.Second)}}
	// FalsePositiveBand scores the Figure-3 FP ratio (per transaction).
	FalsePositiveBand = Band{"false alarms per transaction", [4]float64{0.001, 0.01, 0.05, 0.15}}
	// FalseNegativeBand scores the per-attack miss rate; only a product
	// that missed nothing scores 4. The per-attack view is used because
	// the per-transaction FN ratio is diluted by benign transaction
	// volume; both are reported.
	FalseNegativeBand = Band{"attacks missed per attack", [4]float64{0, 0.15, 0.35, 0.6}}
	// OperationalImpactBand scores host CPU overhead. The paper's
	// calibration points: ~0% (standalone network sensor) is ideal, 3-5%
	// (nominal logging) is acceptable, ~20% (C2 auditing) is a real-time
	// problem.
	OperationalImpactBand = Band{"host CPU fraction", [4]float64{0.005, 0.05, 0.10, 0.20}}
	// DataStorageBand scores bytes stored per megabyte of source traffic.
	DataStorageBand = Band{"bytes per MB", [4]float64{1 << 10, 16 << 10, 128 << 10, 1 << 20}}
	// CompromiseBand scores the fraction of truly compromised hosts the
	// product names; a product that names only uncompromised hosts still
	// scores 1.
	CompromiseBand = Band{"fraction of compromised hosts named", [4]float64{0.99, 0.66, 0.33, above(0)}}
	// SurvivabilityBand scores a fault sweep's retention: detection
	// capability remaining at full fault severity as a fraction of the
	// clean baseline. The high anchor is the paper's "resistance to
	// attack upon self": a product that keeps detecting while its own
	// parts fail.
	SurvivabilityBand = Band{"fraction of baseline detection", [4]float64{0.9, 0.7, 0.4, above(0.1)}}
	// GracefulDegradationBand scores the worst single-step detection drop
	// across a severity sweep, normalized by baseline: small steps mean
	// capability decays smoothly with severity, one large step means a
	// cliff — the product fails all at once.
	GracefulDegradationBand = Band{"fraction of baseline detection", [4]float64{0.1, 0.25, 0.5, 0.75}}
)

// The three metrics whose raw value alone does not decide the score
// guard their band.

func lethalDoseScore(th *ThroughputResult) core.Score {
	if th.Indestructible {
		return core.MaxScore
	}
	return LethalDoseBand.Score(th.LethalPps)
}

func timelinessScore(acc *AccuracyResult) core.Score {
	// With no detection the mean delay is 0, which the band scores 4.
	if acc.DetectedIncidents == 0 {
		return core.MinScore
	}
	return TimelinessBand.Score(float64(acc.MeanDetectionDelay))
}

func compromiseScore(c *CompromiseResult) core.Score {
	s := CompromiseBand.Score(c.Coverage)
	if s == 0 && len(c.Identified) > 0 {
		return 1 // named hosts, none of them truly compromised
	}
	return s
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
		{core.MDataStorage, DataStorageBand.Score(storedPerMB),
			fmt.Sprintf("%.0f bytes stored per MB of source traffic", storedPerMB)},
		{core.MScalableLoadBalancing, ScoreLoadBalancing(spec.IDS.Balancer),
			fmt.Sprintf("discipline: %v across %d sensors", spec.IDS.Balancer, spec.IDS.Sensors)},
		{core.MSystemThroughput, ZeroLossBand.Score(th.ZeroLossPps),
			fmt.Sprintf("sustained %.0f pps without loss", th.ZeroLossPps)},
		{core.MAnalysisOfCompromise, compromiseScore(ev.Compromise),
			fmt.Sprintf("identified %d of %d compromised hosts", len(ev.Compromise.Identified), len(ev.Compromise.TrulyCompromised))},
		{core.MErrorReporting, ScoreErrorReporting(spec.IDS),
			fmt.Sprintf("%v, restart=%v, console=%v", spec.IDS.FailureMode, spec.IDS.RestartAfter > 0, hasConsole)},
		{core.MFirewallInteraction, ScoreResponseChannel(hasConsole, policyHas(ids.ActionFirewallBlock), acc.FirewallBlocks, acc.FilteredPackets > 0),
			fmt.Sprintf("%d blocks, %d packets filtered", acc.FirewallBlocks, acc.FilteredPackets)},
		{core.MInducedLatency, InducedLatencyBand.Score(float64(lat.Induced)),
			fmt.Sprintf("induced %v mean, %v p95 (%v tap)", lat.Induced, lat.InducedP95, lat.Tap)},
		{core.MZeroLossThroughput, ZeroLossBand.Score(th.ZeroLossPps),
			fmt.Sprintf("%.0f pps zero loss", th.ZeroLossPps)},
		{core.MNetworkLethalDose, lethalDoseScore(th),
			lethalNote(th)},
		{core.MObservedFNRatio, FalseNegativeBand.Score(acc.MissRate),
			fmt.Sprintf("missed %d of %d attacks (FN ratio %.5f per transaction)", acc.ActualIncidents-acc.DetectedIncidents, acc.ActualIncidents, acc.FalseNegativeRatio)},
		{core.MObservedFPRatio, FalsePositiveBand.Score(acc.FalsePositiveRatio),
			fmt.Sprintf("%d false alarms over %d transactions (ratio %.5f)", acc.FalseAlarms, acc.Transactions, acc.FalsePositiveRatio)},
		{core.MOperationalImpact, OperationalImpactBand.Score(imp.OverheadFraction),
			fmt.Sprintf("%.1f%% host CPU, %d deadline misses", imp.OverheadFraction*100, imp.DeadlineMisses)},
		{core.MRouterInteraction, ScoreResponseChannel(hasConsole, policyHas(ids.ActionRouterRedirect), acc.RouterRedirects, acc.RouterRedirects > 0),
			fmt.Sprintf("%d redirects", acc.RouterRedirects)},
		{core.MSNMPInteraction, ScoreResponseChannel(hasConsole, policyHas(ids.ActionSNMPTrap), acc.SNMPTraps, acc.SNMPTraps > 0),
			fmt.Sprintf("%d traps", acc.SNMPTraps)},
		{core.MTimeliness, timelinessScore(acc),
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
