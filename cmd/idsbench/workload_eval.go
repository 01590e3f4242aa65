package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/products"
	"repro/internal/report"
	"repro/internal/requirements"
)

// evalWork runs the in-process workloads: quick and full (one scorecard
// per op) and scale (one sharded at-scale run per op).
type evalWork struct {
	p     plan
	field []products.Spec
	reg   *core.Registry
	ref   *hostRef
}

// opOut is one op's rendered report, failed checks, and the counters
// its results carry for the per-layer metrics.
type opOut struct {
	report   []byte
	problems []string
	counts   map[string]float64
}

func newEvalWork(p plan) *evalWork {
	w := &evalWork{p: p, field: products.All(), reg: core.StandardRegistry(), ref: newHostRef()}
	if p.Workload == "scale" {
		w.field = []products.Spec{products.TrueSecure()}
	} else if p.Products > 0 && p.Products < len(w.field) {
		w.field = w.field[:p.Products]
	}
	return w
}

func evalChild(p plan, stdin io.Reader, stdout io.Writer) error {
	ctx := context.Background()
	w := newEvalWork(p)
	ready := childReport{Attempted: 1, Problems: w.warmUp(ctx)}
	if len(ready.Problems) > 0 {
		ready.Failed = 1
	}
	if err := sendLine(stdout, "ready", ready); err != nil {
		return err
	}
	if !awaitRun(stdin) {
		return nil
	}
	rep, err := w.measure(ctx)
	if err != nil {
		return err
	}
	return sendLine(stdout, "result", rep)
}

// warmUp runs the untimed op at the golden seed and checks its rendered
// report against golden.json.
func (w *evalWork) warmUp(ctx context.Context) []string {
	out, err := w.op(ctx, goldenSeed, nil, 0, 0)
	if err != nil {
		return []string{fmt.Sprintf("warm-up op: %v", err)}
	}
	return append(out.problems, checkGolden(w.p.Golden, w.goldenKey(), out.report)...)
}

// goldenKey names the configuration a golden digest belongs to, so a
// digest is never compared against a differently sized run.
func (w *evalWork) goldenKey() string {
	names := ""
	for i, s := range w.field {
		if i > 0 {
			names += ","
		}
		names += s.Name
	}
	if w.p.Workload == "scale" {
		s := w.p.Scale
		return fmt.Sprintf("scale seed=%d product=%s segments=%d hosts=%d duration=%v",
			goldenSeed, names, s.Segments, s.Hosts, s.Duration)
	}
	return fmt.Sprintf("%s seed=%d products=%s", w.p.Workload, goldenSeed, names)
}

// checkGolden compares the SHA-256 of a rendered report with the digest
// golden.json records for key.
func checkGolden(path, key string, rendered []byte) []string {
	sum := sha256.Sum256(rendered)
	got := hex.EncodeToString(sum[:])
	b, err := os.ReadFile(path)
	if err != nil {
		return []string{fmt.Sprintf("golden digests: %v", err)}
	}
	var golden map[string]string
	if err := json.Unmarshal(b, &golden); err != nil {
		return []string{fmt.Sprintf("golden digests %s: %v", path, err)}
	}
	want, ok := golden[key]
	switch {
	case !ok:
		return []string{fmt.Sprintf("no golden digest for %q (this run renders %s)", key, got)}
	case want != got:
		return []string{fmt.Sprintf("report for %q renders %s, golden.json says %s", key, got, want)}
	}
	return nil
}

// op runs one unit of account at seed. With a tracer it records an op
// span with one child span per public call.
func (w *evalWork) op(ctx context.Context, seed int64, t *tracer, opID, lane int) (*opOut, error) {
	var out *opOut
	err := t.do("op", 0, opID, lane, func(id int) error {
		var err error
		if w.p.Workload == "scale" {
			out, err = w.scaleOp(ctx, seed, t, id, opID, lane)
		} else {
			out, err = w.scorecardOp(ctx, seed, t, id, opID, lane)
		}
		return err
	})
	return out, err
}

// scorecardOp is idseval's pipeline: evaluate the field, derive the
// real-time requirement weights, rank, and render the reports.
func (w *evalWork) scorecardOp(ctx context.Context, seed int64, t *tracer, parent, opID, lane int) (*opOut, error) {
	var evs []*eval.ProductEvaluation
	err := t.do("evaluate", parent, opID, lane, func(int) error {
		var err error
		evs, err = eval.EvaluateAll(ctx, w.field, w.reg, eval.Options{
			Seed: seed, Quick: w.p.Workload == "quick", Workers: runtime.NumCPU(),
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	out := &opOut{counts: map[string]float64{}}
	cards := make([]*core.Scorecard, len(evs))
	for i, ev := range evs {
		cards[i] = ev.Card
		out.counts["ingested"] += float64(ev.Telemetry.Ingested)
		out.counts["sensor_drops"] += float64(ev.Telemetry.SensorDrops)
		out.counts["mirror_drops"] += float64(ev.Telemetry.TapDrops)
		out.counts["throughput_probes"] += float64(ev.Throughput.Probes)
	}
	var buf bytes.Buffer
	var weights core.Weights
	var ranked []core.WeightedScore
	err = t.do("rank_render", parent, opID, lane, func(int) error {
		var err error
		if weights, err = requirements.DeriveWeights(requirements.RealTimeEmphasis(), w.reg); err != nil {
			return err
		}
		if ranked, err = core.Rank(cards, weights); err != nil {
			return err
		}
		for _, ev := range evs {
			if err := report.EvaluationReport(&buf, ev); err != nil {
				return err
			}
		}
		for _, c := range core.Classes {
			fmt.Fprintf(&buf, "--- %s score matrix ---\n", c)
			if err := report.ScoreMatrix(&buf, w.reg, c, cards, true); err != nil {
				return err
			}
			buf.WriteString("\n")
		}
		return report.Ranking(&buf, ranked)
	})
	if err != nil {
		return nil, err
	}
	out.report = buf.Bytes()
	out.problems = checkCards(cards, ranked, weights)
	return out, nil
}

// checkCards holds every scorecard op to the scoring contract: complete
// cards, scores on the 0–4 scale, and ranked totals equal to Σ U·W
// recomputed from the cards.
func checkCards(cards []*core.Scorecard, ranked []core.WeightedScore, weights core.Weights) []string {
	var problems []string
	want := make(map[string]float64, len(cards))
	for _, c := range cards {
		if m := c.Missing(); len(m) > 0 {
			problems = append(problems, fmt.Sprintf("%s: scorecard missing %v", c.System, m))
		}
		obsv := c.Observations()
		for id, o := range obsv {
			if o.Score < 0 || o.Score > 4 {
				problems = append(problems, fmt.Sprintf("%s: %s scored %d, outside 0-4", c.System, id, o.Score))
			}
		}
		for id, wt := range weights {
			want[c.System] += wt * float64(obsv[id].Score)
		}
	}
	if len(ranked) != len(cards) {
		problems = append(problems, fmt.Sprintf("ranking has %d systems, field has %d", len(ranked), len(cards)))
	}
	for _, r := range ranked {
		if math.Abs(r.Total-want[r.System]) > 1e-9*math.Max(1, math.Abs(r.Total)) {
			problems = append(problems, fmt.Sprintf("%s: ranked total %v, Σ U·W from the card is %v", r.System, r.Total, want[r.System]))
		}
	}
	return problems
}

// scaleOp is one sharded at-scale run and its report. Traced ops
// instrument the coordinator for the simtime.shard.* numbers.
func (w *evalWork) scaleOp(ctx context.Context, seed int64, t *tracer, parent, opID, lane int) (*opOut, error) {
	s := w.p.Scale
	cfg := eval.ShardedScaleConfig{
		Seed: seed, Segments: s.Segments, HostsPerSegment: s.Hosts, Shards: scaleShards, Duration: s.Duration,
	}
	if t != nil {
		cfg.Obs = obs.NewRegistry()
	}
	var res *eval.ShardedScaleResult
	err := t.do("sharded_run", parent, opID, lane, func(int) error {
		var err error
		res, err = eval.RunShardedScale(ctx, w.field[0], cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := t.do("render", parent, opID, lane, func(int) error { return report.ShardedScaleReport(&buf, res) }); err != nil {
		return nil, err
	}
	out := &opOut{report: buf.Bytes(), counts: map[string]float64{
		"tapped":       float64(res.PacketsTapped),
		"ingested":     float64(res.PacketsTapped),
		"mirror_drops": float64(res.MirrorDrops),
		"sensor_drops": float64(res.SensorDrops),
		"events":       float64(res.Events),
		"windows":      float64(res.Windows),
		"cross_msgs":   float64(res.CrossMessages),
		"wall_s":       res.WallSeconds,
	}}
	var tapped uint64
	for i, seg := range res.PerSegment {
		tapped += seg.Tapped
		if seg.AttacksDetected > seg.AttacksInjected {
			out.problems = append(out.problems, fmt.Sprintf("segment %d detected %d of %d attacks", i, seg.AttacksDetected, seg.AttacksInjected))
		}
	}
	if tapped != res.PacketsTapped {
		out.problems = append(out.problems, fmt.Sprintf("segments tapped %d packets, total says %d", tapped, res.PacketsTapped))
	}
	if res.AttacksDetected > res.AttacksInjected {
		out.problems = append(out.problems, fmt.Sprintf("detected %d of %d attacks", res.AttacksDetected, res.AttacksInjected))
	}
	if cfg.Obs != nil {
		for _, a := range res.Attribution {
			out.counts["busy_s"] += a.Busy.Seconds()
			out.counts["blocked_s"] += a.Blocked.Seconds()
			out.counts["slots_s"] += res.WallSeconds
		}
		if h := cfg.Obs.Snapshot().Hist("simtime.shard.barrier_stall_ns"); h != nil && h.Count > 0 {
			out.counts["stall_p99_us"] = float64(h.Quantile(0.99)) / 1e3
		}
	}
	return out, nil
}

// loop is one timed phase: a closed loop of ops from seed+first until
// the phase's time is up. An op starts only if the median op so far
// would end less than half an op past the phase, so a phase ends as
// close to its length as whole ops allow.
type loop struct {
	// Per op: wall and CPU seconds, peak resident set (MB), and the
	// mean of the reference samples taken right before and after it.
	lat, cpu, rss, ref []float64
	outs               []*opOut
	failed             int
	problems           []string
	mem                runtime.MemStats // TotalAlloc and Mallocs deltas
}

// perRef divides each per-op value by that op's reference time.
func perRef(xs, ref []float64) []float64 {
	out := make([]float64, len(xs))
	for i := range xs {
		out[i] = xs[i] / ref[i]
	}
	return out
}

func (w *evalWork) runLoop(ctx context.Context, first int, t *tracer) (*loop, error) {
	l := &loop{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	deadline := time.Now().Add(time.Duration(w.p.Seconds * float64(time.Second)))
	pre := w.ref.sample()
	for i := 0; ; i++ {
		if w.p.MaxOps > 0 && i >= w.p.MaxOps {
			break
		}
		if i > 0 && time.Now().Add(time.Duration(median(l.lat)/2*float64(time.Second))).After(deadline) {
			break
		}
		seed := w.p.Seed + int64(first+i)
		if err := resetPeakRSS(0); err != nil {
			return nil, err
		}
		cpu0, err := selfCPU()
		if err != nil {
			return nil, err
		}
		start := time.Now()
		out, err := w.op(ctx, seed, t, first+i+1, 0)
		l.lat = append(l.lat, time.Since(start).Seconds())
		cpu1, cerr := selfCPU()
		rss, rerr := peakRSSMB(0)
		if cerr != nil || rerr != nil {
			return nil, fmt.Errorf("process stats: %v %v", cerr, rerr)
		}
		l.cpu = append(l.cpu, (cpu1 - cpu0).Seconds())
		l.rss = append(l.rss, rss)
		post := w.ref.sample()
		l.ref = append(l.ref, (pre+post)/2)
		pre = post
		switch {
		case err != nil:
			l.failed++
			l.problems = append(l.problems, fmt.Sprintf("op at seed %d: %v", seed, err))
		case len(out.problems) > 0:
			l.failed++
			for _, pr := range out.problems {
				l.problems = append(l.problems, fmt.Sprintf("op at seed %d: %s", seed, pr))
			}
			l.outs = append(l.outs, out)
		default:
			l.outs = append(l.outs, out)
		}
	}
	runtime.ReadMemStats(&after)
	l.mem.TotalAlloc = after.TotalAlloc - before.TotalAlloc
	l.mem.Mallocs = after.Mallocs - before.Mallocs
	return l, nil
}

// perOp averages a counter over the loop's successful ops.
func (l *loop) perOp(name string) float64 {
	if len(l.outs) == 0 {
		return 0
	}
	return l.sum(name) / float64(len(l.outs))
}

func (l *loop) sum(name string) float64 {
	s := 0.0
	for _, o := range l.outs {
		s += o.counts[name]
	}
	return s
}

// measure runs the timed loop and returns the end-to-end metrics, or —
// traced — repeats it with tracing on and returns the per-layer ones.
func (w *evalWork) measure(ctx context.Context) (childReport, error) {
	plain, err := w.runLoop(ctx, 0, nil)
	if err != nil {
		return childReport{}, err
	}
	rep := childReport{Attempted: len(plain.lat), Failed: plain.failed, Problems: plain.problems}
	n := float64(len(plain.lat))
	if !w.p.Traced {
		rep.Metrics = map[string]float64{
			"op_p50_ref":      median(perRef(plain.lat, plain.ref)),
			"cpu_ref_per_op":  median(perRef(plain.cpu, plain.ref)),
			"alloc_mb_per_op": float64(plain.mem.TotalAlloc) / 1e6 / n,
			"peak_rss_mb":     median(plain.rss),
		}
		return rep, nil
	}

	t := newTracer()
	var tapped, tappedBytes atomic.Int64
	eval.OfferHook = func(p *packet.Packet, _ bool) {
		tapped.Add(1)
		tappedBytes.Add(int64(len(p.Payload)))
	}
	prof := filepath.Join(w.p.WorkDir, w.p.Workload+".cpu.pprof")
	traced, err := withCPUProfile(prof, func() (*loop, error) { return w.runLoop(ctx, len(plain.lat), t) })
	eval.OfferHook = nil
	if err != nil {
		return rep, err
	}
	rep.Attempted += len(traced.lat)
	rep.Failed += traced.failed
	rep.Problems = append(rep.Problems, traced.problems...)

	m := zeroLayers()
	shares, err := cpuShares(prof)
	if err != nil {
		return rep, err
	}
	for k, v := range shares {
		m[k] = v
	}
	m["op_p50_s"] = median(plain.lat)
	m["cpu_s_per_op"] = median(plain.cpu)
	m["host.ref_ms"] = median(plain.ref) * 1e3
	m["trace_overhead_frac"] = median(perRef(traced.lat, traced.ref))/median(perRef(plain.lat, plain.ref)) - 1
	m["runtime.mallocs_per_op"] = float64(plain.mem.Mallocs) / n
	m["ids.ingested_per_op"] = traced.perOp("ingested")
	if in := traced.sum("ingested"); in > 0 {
		m["ids.sensor_drop_ratio"] = traced.sum("sensor_drops") / in
	}
	m["netsim.mirror_drops_per_op"] = traced.perOp("mirror_drops")
	if w.p.Workload == "scale" {
		m["netsim.tapped_pkts_per_op"] = traced.perOp("tapped")
		if ev := traced.sum("events"); ev > 0 {
			m["simtime.ns_per_event"] = traced.sum("wall_s") * 1e9 / ev
		}
		if slots := traced.sum("slots_s"); slots > 0 {
			busy, blocked := traced.sum("busy_s")/slots, traced.sum("blocked_s")/slots
			m["simtime.shard.busy_frac"] = busy
			m["simtime.shard.blocked_frac"] = blocked
			m["simtime.shard.idle_frac"] = math.Max(0, 1-busy-blocked)
		}
		var stalls []float64
		for _, o := range traced.outs {
			stalls = append(stalls, o.counts["stall_p99_us"])
		}
		m["simtime.shard.barrier_stall_p99_us"] = median(stalls)
		m["simtime.shard.windows_per_op"] = traced.perOp("windows")
		m["simtime.shard.cross_msgs_per_op"] = traced.perOp("cross_msgs")
	} else {
		ops := float64(len(traced.lat))
		m["netsim.tapped_pkts_per_op"] = float64(tapped.Load()) / ops
		m["detect.bytes_per_op"] = float64(tappedBytes.Load()) / 1e6 / ops
		m["eval.throughput_probes_per_op"] = traced.perOp("throughput_probes")
		rr := t.durations("rank_render")
		m["report.rank_render_ms"] = median(rr) * 1e3
		if err := w.breakdown(ctx, t, m); err != nil {
			return rep, err
		}
	}

	probeTrace, err := w.p.poolTrace(0)
	if err != nil {
		return rep, err
	}
	probes, err := probeLayers([][]byte{probeTrace}, w.p.WorkDir)
	if err != nil {
		return rep, err
	}
	for k, v := range probes {
		m[k] = v
	}
	if err := t.write(w.p); err != nil {
		return rep, err
	}
	rep.Metrics = m
	return rep, nil
}

// withCPUProfile runs fn under the CPU profiler, writing the profile to
// path.
func withCPUProfile(path string, fn func() (*loop, error)) (*loop, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	l, err := fn()
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return l, err
}

// experiments are the five measurements EvaluateProduct fans out over,
// sized as it sizes them. The breakdown runs them one at a time, so each
// span is that experiment's uncontended cost.
var experiments = []struct {
	name string
	run  func(ctx context.Context, spec products.Spec, seed int64, quick bool) error
}{
	{"accuracy", func(ctx context.Context, spec products.Spec, seed int64, quick bool) error {
		cfg := eval.TestbedConfig{Seed: seed}
		attackFor, strength := 45*time.Second, attack.Intensity(1)
		if quick {
			cfg.TrainFor, cfg.BackgroundPps = 8*time.Second, 250
			attackFor, strength = 20*time.Second, 0.5
		}
		tb, err := eval.NewTestbed(spec, cfg)
		if err != nil {
			return err
		}
		tb.Bind(ctx)
		acc, err := eval.RunAccuracy(tb, 0.6, attackFor, strength)
		if err != nil {
			return err
		}
		eval.AnalyzeCompromise(tb, acc)
		return nil
	}},
	{"throughput", func(ctx context.Context, spec products.Spec, seed int64, quick bool) error {
		opts := eval.ThroughputOptions{Seed: seed}
		if quick {
			opts.Window, opts.HiPps = 100*time.Millisecond, 65536
		}
		_, err := eval.MeasureThroughput(ctx, spec, opts)
		return err
	}},
	{"latency", func(_ context.Context, spec products.Spec, seed int64, _ bool) error {
		_, err := eval.MeasureInducedLatency(spec, eval.TapMirror, seed)
		return err
	}},
	{"impact", func(_ context.Context, spec products.Spec, seed int64, _ bool) error {
		_, err := eval.MeasureOperationalImpact(spec, seed)
		return err
	}},
	{"sweep", func(ctx context.Context, spec products.Spec, seed int64, quick bool) error {
		opts := eval.SweepOptions{Seed: seed, Workers: 1}
		if quick {
			opts.Points, opts.TrainFor, opts.RunFor = 3, 6*time.Second, 14*time.Second
			opts.Pps, opts.Strength = 200, 0.5
		}
		_, err := eval.SensitivitySweep(ctx, spec, opts)
		return err
	}},
}

// breakdown runs every product's experiments serially at the base seed,
// one span each under a product span, and reports the per-op serial
// cost of each experiment kind and the longest single experiment — the
// critical path however many workers the op has.
func (w *evalWork) breakdown(ctx context.Context, t *tracer, m map[string]float64) error {
	const lane = 1
	quick := w.p.Workload == "quick"
	var longest float64
	return t.do("breakdown", 0, -1, lane, func(root int) error {
		for _, spec := range w.field {
			err := t.do(spec.Name, root, -1, lane, func(parent int) error {
				for _, ex := range experiments {
					start := time.Now()
					if err := t.do(ex.name, parent, -1, lane, func(int) error {
						return ex.run(ctx, spec, w.p.Seed, quick)
					}); err != nil {
						return fmt.Errorf("%s %s: %w", spec.Name, ex.name, err)
					}
					d := time.Since(start).Seconds()
					m["eval."+ex.name+"_s"] += d
					longest = math.Max(longest, d)
				}
				return nil
			})
			if err != nil {
				return err
			}
		}
		m["eval.critical_path_s"] = longest
		return nil
	})
}
