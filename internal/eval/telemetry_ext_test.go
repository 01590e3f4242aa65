package eval_test

// External-package tests for the telemetry subsystem's two cross-layer
// contracts, which need internal/report on top of internal/eval (report
// imports eval, so these cannot live in package eval):
//
//  1. Determinism guard: a full evaluation's rendered output is
//     byte-identical with telemetry collection on or off. Telemetry
//     observes; it never perturbs.
//  2. Replay output: the streaming trace path (whose stage timings now
//     ride obs spans) renders the same stdout report, byte for byte, as
//     the in-memory path.

import (
	"bytes"
	"context"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/products"
	"repro/internal/report"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// renderField runs a quick evaluation of the given products and renders
// every report surface a user sees on stdout into one buffer.
func renderField(t *testing.T, specs []products.Spec, opts eval.Options) (string, []*eval.ProductEvaluation) {
	t.Helper()
	reg := core.StandardRegistry()
	evs, err := eval.EvaluateAll(context.Background(), specs, reg, opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cards := make([]*core.Scorecard, len(evs))
	for i, ev := range evs {
		if err := report.EvaluationReport(&buf, ev); err != nil {
			t.Fatal(err)
		}
		cards[i] = ev.Card
	}
	for _, c := range core.Classes {
		if err := report.ScoreMatrix(&buf, reg, c, cards, true); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String(), evs
}

func TestTelemetryDeterminism(t *testing.T) {
	// The determinism guard: everything printed to stdout — scorecards,
	// evidence notes, matrices — must be byte-identical whether the
	// telemetry registry was wired through the testbeds or not.
	specs := []products.Spec{products.TrueSecure(), products.NetRecorder()}
	off, _ := renderField(t, specs, eval.Options{Seed: 11, Quick: true})
	root := obs.NewRegistry()
	on, evs := renderField(t, specs, eval.Options{Seed: 11, Quick: true, Obs: root})
	if off != on {
		t.Fatalf("telemetry perturbed the evaluation:\n--- off ---\n%s\n--- on ---\n%s", off, on)
	}

	// With collection on, the registry must carry each product's
	// class-3 scorecard quantities and component telemetry under
	// "<Product>.".
	snap := root.Snapshot()
	for _, ev := range evs {
		p := ev.Spec.Name + "."
		for _, g := range []string{
			"scorecard.detection_delay_p95_ns",
			"scorecard.drop_ratio_ppm",
			"scorecard.scan_throughput_pps",
			"scorecard.operator_notifications",
			"scorecard.induced_latency_p95_ns",
		} {
			if _, ok := snap.Gauge(p + g); !ok {
				t.Errorf("registry missing %s", p+g)
			}
		}
		if snap.Hist(p+"eval.path_latency.baseline_ns") == nil {
			t.Errorf("%s: registry missing latency probe histogram", ev.Spec.Name)
		}
		if _, ok := snap.Counter(p + "accuracy.ids.ingested"); !ok {
			t.Errorf("%s: registry missing accuracy-run component telemetry", ev.Spec.Name)
		}
		if ev.Telemetry == nil || ev.Telemetry.Ingested == 0 {
			t.Errorf("%s: telemetry summary empty", ev.Spec.Name)
		}
		// Percentile fields must agree between result structs and the
		// published gauges — one estimator, not two.
		if g, _ := snap.Gauge(p + "scorecard.detection_delay_p95_ns"); g.Value != int64(ev.Accuracy.DelayP95) {
			t.Errorf("%s: scorecard gauge %d != result p95 %d", ev.Spec.Name, g.Value, ev.Accuracy.DelayP95)
		}
	}

	// The telemetry summary must also be derived when collection is off
	// (it reads only deterministic result fields).
	offNone, evsOff := renderField(t, specs, eval.Options{Seed: 11, Quick: true})
	if offNone != off {
		t.Fatal("repeat evaluation not deterministic")
	}
	for _, ev := range evsOff {
		if ev.Telemetry == nil {
			t.Fatalf("%s: telemetry summary missing with collection off", ev.Spec.Name)
		}
	}
}

// buildStreamTrace generates a small labeled trace and returns it both
// in-memory and IDT2-encoded.
func buildStreamTrace(t *testing.T, seed int64) (*trace.Trace, []byte) {
	t.Helper()
	sim := simtime.New(seed)
	rec := trace.NewRecorder(sim, "ecommerce-edge")
	seq := &packet.SeqCounter{}
	eps := traffic.Endpoints{
		External: []packet.Addr{packet.IPv4(203, 0, 1, 1), packet.IPv4(203, 0, 1, 2)},
		Cluster: []packet.Addr{
			packet.IPv4(10, 1, 1, 1), packet.IPv4(10, 1, 1, 2), packet.IPv4(10, 1, 1, 3),
		},
	}
	gen, err := traffic.NewGenerator(sim, traffic.EcommerceEdge(), eps, seq, rec.Emit)
	if err != nil {
		t.Fatal(err)
	}
	gen.Start(40)
	ctx := &attack.Context{Sim: sim, Rng: sim.Stream("attack"), Seq: seq, Eps: eps, Emit: rec.Emit, Gen: gen}
	camp := attack.NewCampaign(ctx)
	if err := camp.SpreadAcross(2*time.Second, 10*time.Second, []attack.Scenario{
		attack.Exploit{Count: 3}, attack.BruteForce{Attempts: 20},
	}); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(15 * time.Second)
	gen.Stop()
	sim.Run()
	rec.SetIncidents(camp.Incidents())
	tr := rec.Trace()
	var enc bytes.Buffer
	if err := tr.WriteStream(&enc); err != nil {
		t.Fatal(err)
	}
	return tr, enc.Bytes()
}

// renderAccuracy renders the replay CLI's stdout report surface.
func renderAccuracy(t *testing.T, res *eval.AccuracyResult) string {
	t.Helper()
	var buf bytes.Buffer
	if err := report.AccuracySummary(&buf, res); err != nil {
		t.Fatal(err)
	}
	if err := report.IntentProfiles(&buf, res.Profiles); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestReplayStdoutByteIdenticalAcrossPaths(t *testing.T) {
	// The replay CLI's report must render byte-identically from the
	// in-memory path (no telemetry) and the streaming path (obs spans,
	// decoder counters, full component instrumentation).
	tr, encoded := buildStreamTrace(t, 23)
	spec := products.TrueSecure()

	want, err := eval.RunTraceAccuracy(context.Background(), spec, tr, 0.6, 6*time.Second, 11)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := trace.NewReader(bytes.NewReader(encoded))
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	got, err := eval.RunTraceAccuracyStream(context.Background(), []products.Spec{spec}, rd, 0.6, 6*time.Second, 11, reg)
	if err != nil {
		t.Fatal(err)
	}

	if w, g := renderAccuracy(t, want), renderAccuracy(t, got[0]); w != g {
		t.Fatalf("replay stdout differs between paths:\n--- in-memory ---\n%s\n--- streaming ---\n%s", w, g)
	}
	// And the instrumented run must actually have produced telemetry.
	if chunks, _ := reg.Snapshot().Counter("trace.decoder.chunks"); chunks == 0 {
		t.Fatal("instrumented streaming run recorded no decoder chunks")
	}
	if d, ok := reg.SpanDur("replay.replay"); !ok || d <= 0 {
		t.Fatalf("replay stage span missing or empty (%v, %v)", d, ok)
	}
}
