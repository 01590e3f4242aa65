package eval

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/products"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// buildTrace generates a small labeled trace for replay tests.
func buildTrace(t *testing.T, seed int64) *trace.Trace {
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
	return rec.Trace()
}

func TestRunTraceAccuracy(t *testing.T) {
	tr := buildTrace(t, 23)
	res, err := RunTraceAccuracy(context.Background(), products.TrueSecure(), tr, 0.6, 6*time.Second, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.ActualIncidents != 2 {
		t.Fatalf("actual incidents = %d", res.ActualIncidents)
	}
	if res.DetectedIncidents == 0 {
		t.Fatal("replay detected nothing")
	}
	if res.Transactions <= 2 {
		t.Fatalf("transactions = %d; conversation counting broken", res.Transactions)
	}
	if len(res.Profiles) == 0 {
		t.Fatal("no intent profiles from replay")
	}
	// The exploit must be caught by a signature product on replay.
	if !res.ByTechnique[attack.TechExploit] {
		t.Fatal("exploit missed on replay")
	}
}

func TestRunTraceAccuracyDeterministic(t *testing.T) {
	tr := buildTrace(t, 23)
	run := func() (int, int) {
		res, err := RunTraceAccuracy(context.Background(), products.NetRecorder(), tr, 0.6, 4*time.Second, 11)
		if err != nil {
			t.Fatal(err)
		}
		return res.DetectedIncidents, res.FalseAlarms
	}
	d1, f1 := run()
	d2, f2 := run()
	if d1 != d2 || f1 != f2 {
		t.Fatalf("replay nondeterministic: (%d,%d) vs (%d,%d)", d1, f1, d2, f2)
	}
}

func TestRunTraceAccuracyRejectsEmpty(t *testing.T) {
	if _, err := RunTraceAccuracy(context.Background(), products.NetRecorder(), &trace.Trace{}, 0.5, time.Second, 1); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestTraceRoundTripThroughReplayMatchesLive(t *testing.T) {
	// A trace recorded and replayed must produce detection outcomes for
	// the same techniques as the live generation path (same engines, same
	// content).
	tr := buildTrace(t, 31)
	res, err := RunTraceAccuracy(context.Background(), products.TrueSecure(), tr, 0.7, 6*time.Second, 13)
	if err != nil {
		t.Fatal(err)
	}
	for _, tech := range []string{attack.TechExploit, attack.TechBruteForce} {
		if !res.ByTechnique[tech] {
			t.Fatalf("replay lost detectability of %s", tech)
		}
	}
}

func TestStreamAccuracyMatchesInMemory(t *testing.T) {
	// The streaming chunked replay path must reproduce the in-memory
	// path's results exactly — rendered reports and all — for the same
	// trace, product, and seeds.
	tr := buildTrace(t, 23)
	var enc bytes.Buffer
	if err := tr.WriteStream(&enc); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []products.Spec{products.TrueSecure(), products.NetRecorder()} {
		want, err := RunTraceAccuracy(context.Background(), spec, tr, 0.6, 6*time.Second, 11)
		if err != nil {
			t.Fatal(err)
		}
		rd, err := trace.NewReader(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		results, err := RunTraceAccuracyStream(context.Background(), []products.Spec{spec}, rd, 0.6, 6*time.Second, 11, reg)
		if err != nil {
			t.Fatal(err)
		}
		got := results[0]
		if chunks, _ := reg.Snapshot().Counter("trace.decoder.chunks"); chunks == 0 {
			t.Fatal("streaming run decoded no chunks")
		}
		for _, name := range []string{"replay.setup", "replay.train", "replay.replay", "replay.score"} {
			if _, ok := reg.SpanDur(name); !ok {
				t.Fatalf("stage span %q not recorded", name)
			}
		}
		// Field-for-field equality: every count, ratio, technique flag,
		// and intent profile must match, so any downstream report renders
		// byte-identically from either path.
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s: streaming result differs from in-memory:\nin-memory: %+v\nstreaming: %+v",
				spec.Name, want, got)
		}
	}
}
