package eval

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/attack"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/products"
)

// SweepPoint is one sensitivity setting's error rates — one x-position on
// the paper's Figure 4.
type SweepPoint struct {
	Sensitivity float64
	// TypeI is the false-positive error percentage: false alarms per
	// transaction × 100.
	TypeI float64
	// TypeII is the false-negative error percentage: missed attacks per
	// actual attack × 100.
	TypeII float64
	// Raw retains the full run result.
	Raw *AccuracyResult
}

// SweepResult is the Figure-4 reproduction: both error curves and the
// equal error rate.
type SweepResult struct {
	Product string
	Points  []SweepPoint
	// EER is the interpolated sensitivity where the curves cross.
	EER float64
	// EERError is the common error percentage at the crossover.
	EERError float64
	// EERValid is false when the curves never cross in the swept range.
	EERValid bool
}

// SweepOptions sizes the experiment.
type SweepOptions struct {
	Seed     int64
	Points   int           // default 6
	TrainFor time.Duration // default 15s
	RunFor   time.Duration // default 30s
	Pps      float64       // default 400
	Strength attack.Intensity
	// Workers is how many testbeds the points are dealt to, at most
	// one per point: 0 (or less) sizes it to the machine, 1 runs every
	// point on one testbed. Each testbed simulates the network once for
	// all its points, so more testbeds spread the points over cores at
	// the cost of re-simulating the same traffic.
	Workers int
	// Obs, when non-nil, instruments every testbed with one shared
	// registry: topology counters count each testbed's network once,
	// while IDS counters add across points. Observation only: the sweep
	// is bit-identical with or without it.
	Obs *obs.Registry
}

func (o *SweepOptions) applyDefaults() {
	if o.Points == 0 {
		o.Points = 6
	}
	if o.TrainFor == 0 {
		o.TrainFor = 15 * time.Second
	}
	if o.RunFor == 0 {
		o.RunFor = 30 * time.Second
	}
	if o.Pps == 0 {
		o.Pps = 400
	}
	if o.Strength == 0 {
		o.Strength = 1
	}
	if o.Seed == 0 {
		o.Seed = 7
	}
}

// SensitivitySweep reruns the accuracy experiment across the sensitivity
// range, producing the Type I / Type II error curves of Figure 4. Only
// the sensitivity knob varies between points, so the points share the
// simulated network: they are dealt round-robin to min(Workers, Points)
// testbeds, each of which runs its points as IDS deployments that see
// the same packets at the same virtual times (DESIGN §7). Testbeds fan
// out on the shared bounded runner; every point is bit-identical to
// SweepPointAt at its index whatever the testbed count, and results are
// assembled in index order.
//
// Cancelling ctx halts in-flight testbeds at the kernel's interrupt
// stride and skips unstarted ones. On cancellation the partial result —
// the points of completed testbeds only, no EER — is returned alongside
// the error so callers can report how far the sweep got; a testbed
// completes its points together, so one testbed (Workers 1) completes
// none. Any other failure cancels the remaining testbeds, surfaces the
// lowest-indexed testbed's error, and returns no result.
func SensitivitySweep(ctx context.Context, spec products.Spec, opts SweepOptions) (*SweepResult, error) {
	opts.applyDefaults()
	if opts.Points < 2 {
		return nil, fmt.Errorf("eval: sweep needs at least 2 points, got %d", opts.Points)
	}
	beds := opts.Workers
	if beds <= 0 {
		beds = runtime.NumCPU()
	}
	beds = min(beds, opts.Points)
	points := make([]SweepPoint, opts.Points)
	err := par.ForEach(ctx, beds, beds, func(ctx context.Context, b int) error {
		var pairs []sweepPair
		for i := b; i < opts.Points; i += beds {
			pairs = append(pairs, sweepPair{spec: spec, point: i})
		}
		got, err := sweepGroup(ctx, opts, pairs)
		if err != nil {
			return err
		}
		for j, pr := range pairs {
			points[pr.point] = got[j]
		}
		return nil
	})
	if err != nil {
		if isCancel(err) {
			var done []SweepPoint
			for _, p := range points {
				if p.Raw != nil {
					done = append(done, p)
				}
			}
			return &SweepResult{Product: spec.Name, Points: done}, err
		}
		return nil, err
	}
	return AssembleSweep(spec.Name, points), nil
}

// SweepPointAt runs the accuracy experiment behind the i-th sweep point
// (sensitivity i/(Points-1)) on a testbed of its own. It is the unit of
// work a campaign journals and resumes individually, and the one-point
// group of the function every sweep runs, so the point produced here is
// bit-identical to the same index of a full SensitivitySweep with the
// same options.
func SweepPointAt(ctx context.Context, spec products.Spec, opts SweepOptions, i int) (SweepPoint, error) {
	opts.applyDefaults()
	if i < 0 || i >= opts.Points {
		return SweepPoint{}, fmt.Errorf("eval: sweep point %d out of range [0,%d)", i, opts.Points)
	}
	points, err := sweepGroup(ctx, opts, []sweepPair{{spec: spec, point: i}})
	if err != nil {
		return SweepPoint{}, err
	}
	return points[0], nil
}

// fieldSweep runs the sweep of every product in specs on one testbed
// and returns the sweeps in field order, each bit-identical to
// SensitivitySweep of its product alone.
func fieldSweep(ctx context.Context, specs []products.Spec, opts SweepOptions) ([]*SweepResult, error) {
	opts.applyDefaults()
	if opts.Points < 2 {
		return nil, fmt.Errorf("eval: sweep needs at least 2 points, got %d", opts.Points)
	}
	var pairs []sweepPair
	for _, spec := range specs {
		for i := 0; i < opts.Points; i++ {
			pairs = append(pairs, sweepPair{spec: spec, point: i})
		}
	}
	points, err := sweepGroup(ctx, opts, pairs)
	if err != nil {
		return nil, err
	}
	out := make([]*SweepResult, len(specs))
	for e, spec := range specs {
		lo, hi := e*opts.Points, (e+1)*opts.Points
		out[e] = AssembleSweep(spec.Name, points[lo:hi:hi])
	}
	return out, nil
}

// sweepPair is one deployment of a sweep testbed: the point-th point
// of the sweep of spec.
type sweepPair struct {
	spec  products.Spec
	point int
}

// sweepGroup runs pairs as deployments on one testbed and returns their
// points in pair order.
func sweepGroup(ctx context.Context, opts SweepOptions, pairs []sweepPair) ([]SweepPoint, error) {
	deps := make([]deploy, len(pairs))
	sens := make([]float64, len(pairs))
	for j, pr := range pairs {
		deps[j] = deploy{spec: pr.spec, obs: opts.Obs}
		sens[j] = float64(pr.point) / float64(opts.Points-1)
	}
	tb, err := newTestbed(TestbedConfig{
		Seed: opts.Seed, TrainFor: opts.TrainFor, BackgroundPps: opts.Pps,
		Obs: opts.Obs,
	}, deps...)
	if err != nil {
		return nil, err
	}
	tb.Bind(ctx)
	runs, err := runDeployments(tb, nil, sens, opts.RunFor, opts.Strength, 0)
	if err != nil {
		return nil, err
	}
	points := make([]SweepPoint, len(runs))
	for j, r := range runs {
		points[j] = SweepPoint{
			Sensitivity: sens[j],
			TypeI:       r.Accuracy.FalsePositiveRatio * 100,
			TypeII:      r.Accuracy.MissRate * 100,
			Raw:         r.Accuracy,
		}
	}
	return points, nil
}

// AssembleSweep builds a SweepResult from independently produced points
// (a campaign's per-point experiments), computing the equal error rate
// exactly as SensitivitySweep would.
func AssembleSweep(product string, points []SweepPoint) *SweepResult {
	out := &SweepResult{Product: product, Points: points}
	out.EER, out.EERError, out.EERValid = equalErrorRate(points)
	return out
}

// equalErrorRate finds the crossover of the Type I and Type II curves by
// linear interpolation between adjacent sweep points.
func equalErrorRate(points []SweepPoint) (sens, errPct float64, ok bool) {
	for i := 1; i < len(points); i++ {
		a, b := points[i-1], points[i]
		da := a.TypeII - a.TypeI
		db := b.TypeII - b.TypeI
		if da == 0 {
			return a.Sensitivity, a.TypeI, true
		}
		if da*db < 0 {
			// Sign change: interpolate the zero of (TypeII - TypeI).
			t := da / (da - db)
			s := a.Sensitivity + t*(b.Sensitivity-a.Sensitivity)
			e := a.TypeI + t*(b.TypeI-a.TypeI)
			return s, e, true
		}
	}
	if n := len(points); n > 0 && points[n-1].TypeII == points[n-1].TypeI {
		return points[n-1].Sensitivity, points[n-1].TypeI, true
	}
	return 0, 0, false
}

// SensitivityEffect summarizes whether the knob actually moves the error
// trade-off — the evidence behind the Adjustable Sensitivity score.
type SensitivityEffect struct {
	// TypeIIRange is max−min Type II across the sweep.
	TypeIIRange float64
	// TypeIRange is max−min Type I across the sweep.
	TypeIRange float64
	// TradeoffDirectionOK means Type II at max sensitivity <= at min,
	// and Type I at max >= at min (the expected directions).
	TradeoffDirectionOK bool
}

// Effect computes the SensitivityEffect of a sweep.
func (s *SweepResult) Effect() SensitivityEffect {
	var e SensitivityEffect
	if len(s.Points) < 2 {
		return e
	}
	minI, maxI := s.Points[0].TypeI, s.Points[0].TypeI
	minII, maxII := s.Points[0].TypeII, s.Points[0].TypeII
	for _, p := range s.Points {
		if p.TypeI < minI {
			minI = p.TypeI
		}
		if p.TypeI > maxI {
			maxI = p.TypeI
		}
		if p.TypeII < minII {
			minII = p.TypeII
		}
		if p.TypeII > maxII {
			maxII = p.TypeII
		}
	}
	e.TypeIRange = maxI - minI
	e.TypeIIRange = maxII - minII
	first, last := s.Points[0], s.Points[len(s.Points)-1]
	e.TradeoffDirectionOK = last.TypeII <= first.TypeII && last.TypeI >= first.TypeI
	return e
}

// Publish writes the sweep's error curves into reg as "sweep.*" gauges
// — per-point Type I/II error rates plus the EER crossover — so a live
// /metrics scrape or a JSONL export carries the Figure-4 evidence.
// Rates are in parts per million to stay integral. No-op on a nil
// registry.
func (s *SweepResult) Publish(reg *obs.Registry) {
	if s == nil || reg == nil {
		return
	}
	for i, p := range s.Points {
		prefix := fmt.Sprintf("sweep.p%02d.", i)
		reg.Gauge(prefix + "sensitivity_ppm").Set(int64(p.Sensitivity * 1e6))
		reg.Gauge(prefix + "type_i_ppm").Set(int64(p.TypeI * 1e4))
		reg.Gauge(prefix + "type_ii_ppm").Set(int64(p.TypeII * 1e4))
	}
	if s.EERValid {
		reg.Gauge("sweep.eer_sensitivity_ppm").Set(int64(s.EER * 1e6))
		reg.Gauge("sweep.eer_error_ppm").Set(int64(s.EERError * 1e4))
	}
	reg.Gauge("sweep.points").Set(int64(len(s.Points)))
}
