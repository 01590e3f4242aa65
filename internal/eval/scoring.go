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
	// Workers bounds the one worker pool an evaluation fans out on: the
	// field's shared sweep testbed, its shared accuracy testbed, and
	// each product's throughput, latency and impact runs. 0 sizes the
	// pool to the machine; 1 forces the fully serial path. Because every
	// experiment owns its simulation and derives its RNG streams from
	// Seed alone, both settings produce bit-identical scorecards.
	Workers int
	// Obs, when set, instruments each product's evaluation under
	// Obs.Sub("<Product>."), where <Product> is the release's
	// Spec.TelemetryName: the product's IDS on the accuracy testbed
	// under "<Product>.accuracy." while it runs, then the scorecard
	// gauges, the matcher-cache gauges and the measurement histograms
	// once the field's experiments end. The accuracy testbed's one
	// network writes under the first product's "<Product>.accuracy.".
	// Telemetry observes and never perturbs: scorecards and results are
	// bit-identical with it set or nil (the determinism guard test pins
	// this).
	Obs *obs.Registry
}

// scorecardSensitivity is the detection sensitivity the scorecard's
// accuracy experiment runs every product at.
const scorecardSensitivity = 0.6

// accuracyRun sizes the scorecard's accuracy experiment: its testbed,
// attack window and campaign strength.
func (o Options) accuracyRun() (TestbedConfig, time.Duration, attack.Intensity) {
	if o.Quick {
		return TestbedConfig{Seed: o.Seed, TrainFor: 8 * time.Second, BackgroundPps: 250}, 20 * time.Second, 0.5
	}
	return TestbedConfig{Seed: o.Seed}, 45 * time.Second, 1
}

// sweepOptions sizes the scorecard's sensitivity sweep, which runs on
// one testbed.
func (o Options) sweepOptions() SweepOptions {
	if o.Quick {
		return SweepOptions{Seed: o.Seed, Workers: 1, Points: 3, TrainFor: 6 * time.Second,
			RunFor: 14 * time.Second, Pps: 200, Strength: 0.5}
	}
	return SweepOptions{Seed: o.Seed, Workers: 1}
}

// throughputOptions sizes the scorecard's throughput search.
func (o Options) throughputOptions() ThroughputOptions {
	if o.Quick {
		return ThroughputOptions{Seed: o.Seed, Window: 100 * time.Millisecond, HiPps: 65536}
	}
	return ThroughputOptions{Seed: o.Seed}
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
}

// EvaluateProduct runs every experiment against one product and fills a
// complete scorecard: static observations from the spec plus measured
// observations from the harness. It is EvaluateAll over a field of one,
// so a product's evaluation is the same alone and in any field.
//
// Cancelling ctx (SIGINT, a timeout, a campaign watchdog) halts the
// in-flight simulations at the kernel's interrupt stride and returns
// the cancellation error; a partially evaluated product has no valid
// scorecard, so no partial ProductEvaluation is returned.
func EvaluateProduct(ctx context.Context, spec products.Spec, reg *core.Registry, opts Options) (*ProductEvaluation, error) {
	evs, err := EvaluateAll(ctx, []products.Spec{spec}, reg, opts)
	if err != nil {
		return nil, err
	}
	return evs[0], nil
}

// finish scores the completed experiments onto the card, derives the
// telemetry summary and, when telem is set, publishes it there.
func (ev *ProductEvaluation) finish(telem *obs.Registry) error {
	if err := ev.fillMeasuredScores(); err != nil {
		return err
	}
	ev.Telemetry = BuildTelemetry(ev)
	if telem != nil {
		ev.Telemetry.Publish(telem)
		detect.PublishCacheMetrics(telem)
		ev.publishMeasurementHists(telem)
	}
	return nil
}

// complete reports whether every measured experiment has its result.
func (ev *ProductEvaluation) complete() bool {
	return ev.Accuracy != nil && ev.Compromise != nil && ev.Throughput != nil &&
		ev.Latency != nil && ev.Impact != nil && ev.Sweep != nil
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
// The field shares two simulated networks, because every product sees
// the same traffic and campaign (DESIGN §7): one accuracy testbed holds
// a deployment of every product, and one sweep testbed a deployment of
// every product at every sensitivity point. Each product's throughput,
// latency and impact runs own their simulations. These jobs fan out on
// one bounded runner, longest first: the sweep testbed, the accuracy
// testbed, then each product's runs. Every result derives from
// opts.Seed alone and results keep the field order, so the parallel run
// is bit-identical to a serial one, and each product's evaluation to
// EvaluateProduct of that product alone. The first failing job, in that
// order, cancels the rest and its error is the one returned.
//
// Cancelling ctx (SIGINT/SIGTERM, -timeout) drains gracefully: the
// field slots come back with the cancellation error, each holding its
// product's evaluation only when every one of that product's
// experiments completed (nil otherwise), so callers can print partial
// scorecards with an explicit interrupted banner. The shared testbeds
// are experiments of every product and run first, so a cancel that
// lands in either fills no slot: an interrupted full-field idseval
// usually reports 0 of 4 products done. Non-cancellation failures
// return no results.
func EvaluateAll(ctx context.Context, specs []products.Spec, reg *core.Registry, opts Options) ([]*ProductEvaluation, error) {
	if opts.Seed == 0 {
		opts.Seed = 11
	}
	evs := make([]*ProductEvaluation, len(specs))
	views := make([]*obs.Registry, len(specs))
	for i, spec := range specs {
		card := core.NewScorecard(reg, spec.Name, spec.Version)
		if err := spec.ApplyStatic(card); err != nil {
			return nil, err
		}
		evs[i] = &ProductEvaluation{Spec: spec, Card: card}
		views[i] = opts.Obs.Sub(spec.TelemetryName() + ".")
	}
	if len(specs) == 0 {
		return evs, nil
	}

	jobs := []func(ctx context.Context) error{
		// Sensitivity sweep: every product's points on one testbed.
		func(ctx context.Context) error {
			sws, err := fieldSweep(ctx, specs, opts.sweepOptions())
			if err != nil {
				return err
			}
			for i, sw := range sws {
				evs[i].Sweep = sw
			}
			return nil
		},
		// Accuracy + timeliness + response + compromise: every product
		// on one testbed, each under its own telemetry view.
		func(ctx context.Context) error {
			cfg, attackFor, strength := opts.accuracyRun()
			cfg.Obs = views[0].Sub("accuracy.")
			deps := make([]deploy, len(specs))
			sens := make([]float64, len(specs))
			for i, spec := range specs {
				deps[i] = deploy{spec: spec, obs: views[i].Sub("accuracy."), entry: i}
				sens[i] = scorecardSensitivity
			}
			tb, err := newTestbed(cfg, deps...)
			if err != nil {
				return err
			}
			tb.Bind(ctx)
			runs, err := runDeployments(tb, nil, sens, attackFor, strength, 0)
			if err != nil {
				return err
			}
			for i, r := range runs {
				evs[i].Accuracy = r.Accuracy
				evs[i].Compromise = AnalyzeCompromise(tb, r.Accuracy)
			}
			return nil
		},
	}
	for _, ev := range evs {
		jobs = append(jobs,
			// Throughput / lethal dose.
			func(ctx context.Context) error {
				th, err := MeasureThroughput(ctx, ev.Spec, opts.throughputOptions())
				if err != nil {
					return fmt.Errorf("eval: %s: %w", ev.Spec.Name, err)
				}
				ev.Throughput = th
				return nil
			},
			// Induced latency on the passive (mirror) deployment, the
			// paper's common case; the ablation bench measures both
			// taps.
			func(context.Context) error {
				lat, err := MeasureInducedLatency(ev.Spec, TapMirror, opts.Seed)
				if err != nil {
					return fmt.Errorf("eval: %s: %w", ev.Spec.Name, err)
				}
				ev.Latency = lat
				return nil
			},
			// Host impact.
			func(context.Context) error {
				imp, err := MeasureOperationalImpact(ev.Spec, opts.Seed)
				if err != nil {
					return fmt.Errorf("eval: %s: %w", ev.Spec.Name, err)
				}
				ev.Impact = imp
				return nil
			},
		)
	}
	err := par.ForEach(ctx, len(jobs), opts.Workers, func(ctx context.Context, j int) error {
		return jobs[j](ctx)
	})
	if err != nil && !isCancel(err) {
		return nil, err
	}
	for i, ev := range evs {
		if !ev.complete() {
			evs[i] = nil
			continue
		}
		if ferr := ev.finish(views[i]); ferr != nil {
			return nil, fmt.Errorf("eval: %s: %w", ev.Spec.Name, ferr)
		}
	}
	return evs, err
}
