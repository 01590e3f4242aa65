package campaign

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"time"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/products"
	"repro/internal/trace"
)

// execute runs a group (Runner.groups) and builds its members'
// persistable results, in group order: a trace's grouped replays share
// one testbed, and any other group is one experiment. Exec, when set,
// runs each member in turn, and the group fails with its first error.
// Every path forces Workers=1 internally: the campaign level is the
// only source of parallelism, so nested pools never oversubscribe the
// machine and the simulations stay deterministic units.
func (r *Runner) execute(ctx context.Context, group []Experiment) ([]*Result, error) {
	if r.Exec == nil && group[0].Kind == KindTrace {
		return r.runTraces(ctx, group)
	}
	run := r.executeOne
	if r.Exec != nil {
		run = r.Exec
	}
	out := make([]*Result, len(group))
	for i, ex := range group {
		res, err := run(ctx, ex)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// executeOne runs one experiment that is not a trace replay and builds
// its persistable result.
func (r *Runner) executeOne(ctx context.Context, ex Experiment) (*Result, error) {
	spec, ok := products.Find(ex.Product)
	if !ok {
		return nil, fmt.Errorf("campaign: unknown product %q", ex.Product)
	}
	res := &Result{ID: ex.ID, Kind: ex.Kind, Product: ex.Product}
	switch ex.Kind {
	case KindEval:
		opts := eval.Options{Seed: r.Spec.Seed, Quick: r.Spec.Quick, Workers: 1, Obs: r.Obs.Sub("eval.")}
		ev, err := eval.EvaluateProduct(ctx, spec, core.StandardRegistry(), opts)
		if err != nil {
			return nil, err
		}
		var card bytes.Buffer
		if err := ev.Card.WriteJSON(&card); err != nil {
			return nil, err
		}
		res.Eval = &EvalResult{
			Scorecard:   card.Bytes(),
			FalseAlarms: ev.Accuracy.FalseAlarms,
		}
		res.Eval.DetectionRate = ev.Accuracy.DetectionRate
		res.Eval.MeanDelayNs = int64(ev.Accuracy.MeanDetectionDelay)
		if ev.Throughput != nil {
			res.Eval.ZeroLossPps = ev.Throughput.ZeroLossPps
			res.Eval.LethalPps = ev.Throughput.LethalPps
		}
		if ev.Sweep != nil {
			res.Eval.EER = ev.Sweep.EER
			res.Eval.EERValid = ev.Sweep.EERValid
		}
	case KindSweepPoint:
		p, err := eval.SweepPointAt(ctx, spec, r.sweepOpts(ex), ex.Index)
		if err != nil {
			return nil, err
		}
		res.Point = &PointResult{
			Index: ex.Index, Points: ex.Points,
			Sensitivity: p.Sensitivity, TypeI: p.TypeI, TypeII: p.TypeII,
		}
	case KindFaultPoint:
		sc, err := faults.Load(ex.Scenario)
		if err != nil {
			return nil, err
		}
		fr, err := eval.FaultPointAt(ctx, spec, sc, r.faultOpts(ex), ex.Index)
		if err != nil {
			return nil, err
		}
		res.Fault = &FaultResult{
			Scenario: artifact(ex.Scenario), Index: ex.Index, Points: ex.Points,
			Severity:       fr.Severity,
			DetectionRate:  fr.Accuracy.DetectionRate,
			AlertsLost:     fr.AlertsLost,
			AlertsDropped:  fr.AlertsDropped,
			SpoolDelivered: fr.SpoolDelivered,
			SensorDownNs:   int64(fr.SensorDowntime),
		}
	default:
		return nil, fmt.Errorf("campaign: unknown experiment kind %q", ex.Kind)
	}
	return res, nil
}

// sweepOpts mirrors cmd/eersweep's sizing so campaign sweep points are
// bit-identical to a standalone sweep at the same seed and scale.
func (r *Runner) sweepOpts(ex Experiment) eval.SweepOptions {
	opts := eval.SweepOptions{Seed: r.Spec.Seed, Points: ex.Points, Workers: 1}
	if r.Spec.Quick {
		opts.TrainFor = 6 * time.Second
		opts.RunFor = 14 * time.Second
		opts.Pps = 200
		opts.Strength = 0.5
	}
	return opts
}

// faultOpts mirrors cmd/faultsweep's sizing.
func (r *Runner) faultOpts(ex Experiment) eval.FaultSweepOptions {
	opts := eval.FaultSweepOptions{Seed: r.Spec.Seed, Points: ex.Points, Workers: 1}
	if r.Spec.Quick {
		opts.TrainFor = 8 * time.Second
		opts.AttackFor = 20 * time.Second
		opts.Pps = 300
	}
	return opts
}

// runTraces replays the IDT2 trace file that every experiment of group
// names, once, for all their products: one deployment each on one
// testbed, whose results are bit-identical to lone replays (DESIGN §7).
func (r *Runner) runTraces(ctx context.Context, group []Experiment) ([]*Result, error) {
	specs := make([]products.Spec, len(group))
	for i, ex := range group {
		spec, ok := products.Find(ex.Product)
		if !ok {
			return nil, fmt.Errorf("campaign: unknown product %q", ex.Product)
		}
		specs[i] = spec
	}
	path := group[0].Trace
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	defer f.Close()
	rd, err := trace.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("campaign: %s: %w", path, err)
	}
	trainFor := 15 * time.Second
	if r.Spec.Quick {
		trainFor = 6 * time.Second
	}
	accs, err := eval.RunTraceAccuracyStream(ctx, specs, rd, r.Spec.Sensitivity, trainFor, r.Spec.Seed, nil)
	if err != nil {
		return nil, err
	}
	out := make([]*Result, len(group))
	for i, ex := range group {
		acc := accs[i]
		out[i] = &Result{ID: ex.ID, Kind: ex.Kind, Product: ex.Product, Trace: &TraceResult{
			Trace:           artifact(ex.Trace),
			ActualIncidents: acc.ActualIncidents,
			Detected:        acc.DetectedIncidents,
			FalseAlarms:     acc.FalseAlarms,
			DetectionRate:   acc.DetectionRate,
			FalsePosRatio:   acc.FalsePositiveRatio,
			MeanDelayNs:     int64(acc.MeanDetectionDelay),
		}}
	}
	return out, nil
}
