package eval

import (
	"context"
	"fmt"
	"time"

	"repro/internal/attack"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/products"
	"repro/internal/trace"
)

// RunTraceAccuracy replays a canned trace (Lesson 2) against a product
// and scores the monitor's reports against the trace's ground-truth
// sidecar. The product first trains on live clean background for
// trainFor, then the entire trace is replayed through the testbed hosts.
// Cancelling ctx halts the replay at the kernel's interrupt stride. No
// command calls it: it is the reference for tests, which check
// RunTraceAccuracyStream against it.
func RunTraceAccuracy(ctx context.Context, spec products.Spec, tr *trace.Trace, sensitivity float64, trainFor time.Duration, seed int64) (*AccuracyResult, error) {
	if len(tr.Records) == 0 {
		return nil, fmt.Errorf("eval: empty trace")
	}
	cluster, external := tr.PlanHosts()
	tb, err := NewTestbed(spec, TestbedConfig{
		Seed: seed, TrainFor: trainFor,
		ClusterHosts: cluster, ExternalHosts: external,
	})
	if err != nil {
		return nil, err
	}
	tb.Bind(ctx)
	if err := tb.Train(); err != nil {
		return nil, err
	}
	if err := tb.IDS.SetSensitivity(sensitivity); err != nil {
		return nil, err
	}
	replayStart := tb.Sim.Now()
	if err := trace.Replay(tb.Sim, tr, replayStart, tb.inject); err != nil {
		return nil, err
	}
	tb.Drain()
	if err := tb.Interrupted(); err != nil {
		return nil, err
	}
	tb.IDS.Flush()

	// Conversations (canonical flows) approximate the trace's transaction
	// count; the background generator's own sessions during training are
	// excluded on purpose — the measured period is the replay.
	convs := make(map[packet.FlowKey]bool)
	for _, rec := range tr.Records {
		if !rec.Pk.Truth.Malicious {
			convs[rec.Pk.Key().Canonical()] = true
		}
	}

	return scoreAccuracy(tb, tb.deps[0], sensitivity,
		shiftIncidents(tr.Incidents, tr.Records[0].At, replayStart), len(convs))
}

// RunTraceAccuracyStream is RunTraceAccuracy for a streamed IDT2 trace,
// run for every product of a field at once: the field shares one
// testbed, sized from the stream's footer statistics, with one IDS
// deployment per product (DESIGN §7), so the trace decodes once, the
// network simulates it once and the testbed trains one learned
// profile. Each chunk decodes inside the simulation event that
// schedules it, and peak memory is O(chunk) instead of O(capture).
// The results come back in field order, and each is identical to
// loading the same records through RunTraceAccuracy for its product
// alone.
//
// When reg is non-nil, the run is instrumented: wall-clock stage spans
// ("replay.setup" / "replay.train" / "replay.replay" / "replay.score"),
// decoder counters on rd, and the full testbed component telemetry,
// every deployment's included, as SweepOptions.Obs instruments a
// sweep. The scored results are bit-identical with reg set or nil.
func RunTraceAccuracyStream(ctx context.Context, specs []products.Spec, rd *trace.Reader, sensitivity float64, trainFor time.Duration, seed int64, reg *obs.Registry) ([]*AccuracyResult, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("eval: trace replay for no products")
	}
	st := rd.Stats()
	if st.Packets == 0 {
		return nil, fmt.Errorf("eval: empty trace")
	}
	rd.SetObs(reg)
	sp := reg.StartSpan("replay.setup")
	deps := make([]deploy, len(specs))
	for i, spec := range specs {
		deps[i] = deploy{spec: spec, obs: reg}
	}
	tb, err := newTestbed(TestbedConfig{
		Seed: seed, TrainFor: trainFor,
		ClusterHosts: st.ClusterHosts, ExternalHosts: st.ExternalHosts,
		Obs: reg,
	}, deps...)
	if err != nil {
		return nil, err
	}
	tb.Bind(ctx)
	sp.End()
	sp = reg.StartSpan("replay.train")
	if err := tb.Train(); err != nil {
		return nil, err
	}
	for _, d := range tb.deps {
		if err := d.ids.SetSensitivity(sensitivity); err != nil {
			return nil, err
		}
	}
	sp.End()

	sp = reg.StartSpan("replay.replay")
	replayStart := tb.Sim.Now()
	convs := make(map[packet.FlowKey]bool)
	emit := func(p *packet.Packet) {
		if !p.Truth.Malicious {
			convs[p.Key().Canonical()] = true
		}
		tb.inject(p)
	}
	rs, err := trace.ReplayReader(tb.Sim, rd, replayStart, emit)
	if err != nil {
		return nil, err
	}
	tb.Drain()
	if err := rs.Err(); err != nil {
		return nil, err
	}
	if err := tb.Interrupted(); err != nil {
		return nil, err
	}
	for _, d := range tb.deps {
		d.ids.Flush()
	}
	sp.End()

	sp = reg.StartSpan("replay.score")
	defer sp.End()
	truth := shiftIncidents(rd.Incidents(), st.FirstAt, replayStart)
	out := make([]*AccuracyResult, len(tb.deps))
	for i, d := range tb.deps {
		if out[i], err = scoreAccuracy(tb, d, sensitivity, truth, len(convs)); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// shiftIncidents rebases ground-truth times from the trace's own
// timeline onto the replay clock.
func shiftIncidents(incs []attack.Incident, base, replayStart time.Duration) []attack.Incident {
	shifted := make([]attack.Incident, len(incs))
	for i, inc := range incs {
		inc.Start = inc.Start - base + replayStart
		shifted[i] = inc
	}
	return shifted
}
