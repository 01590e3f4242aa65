package eval

// Tests for the throughput harness: a bad setup must surface as a
// construction-time error, never a panic or a hang, and a probe that
// stops at its verdict must answer as a full run would.

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/detect"
	"repro/internal/packet"
	"repro/internal/products"
	"repro/internal/simtime"
)

func TestPacketPoolFillsFromProfile(t *testing.T) {
	opts := ThroughputOptions{}
	opts.applyDefaults()
	pool, err := packetPool(opts, 25)
	if err != nil {
		t.Fatal(err)
	}
	if len(pool) != 25 {
		t.Fatalf("pool has %d packets, want 25", len(pool))
	}
	payloads := 0
	for _, p := range pool {
		if len(p.Payload) > 0 {
			payloads++
		}
	}
	if payloads == 0 {
		t.Fatal("pool carries no payloads; throughput probing would not exercise inspection engines")
	}
}

func TestFillPoolStallGuard(t *testing.T) {
	// A session source that emits nothing must trip the cap with an
	// error instead of spinning forever.
	sim := simtime.New(1)
	var pool []*packet.Packet
	err := fillPool(sim, &pool, 10, func() {})
	if err == nil {
		t.Fatal("zero-emission source filled the pool")
	}
	if !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestMeasureThroughputInvertedBounds(t *testing.T) {
	_, err := MeasureThroughput(context.Background(), products.TrueSecure(), ThroughputOptions{LoPps: 1000, HiPps: 500})
	if err == nil {
		t.Fatal("inverted bounds accepted")
	}
	if !strings.Contains(err.Error(), "bounds inverted") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// pinnedThroughput holds MeasureThroughput's seed-11 results, exactly,
// under the quick and the full probe window. How a probe schedules its
// feed must not move any of them.
var pinnedThroughput = map[string]ThroughputResult{
	"quick/NetRecorder":  {Product: "NetRecorder", ZeroLossPps: 52146.07834875593, Indestructible: true, Probes: 8},
	"quick/TrueSecure":   {Product: "TrueSecure", ZeroLossPps: 65536, Indestructible: true, Probes: 2},
	"quick/StreamHunter": {Product: "StreamHunter", ZeroLossPps: 65536, Indestructible: true, Probes: 2},
	"quick/AgentSwarm":   {Product: "AgentSwarm", ZeroLossPps: 38448.31242079346, Indestructible: true, Probes: 9},
	"quick/FloorDropper": {Product: "FloorDropper", ZeroLossPps: 0, LethalPps: 1280, Probes: 4},
	"full/NetRecorder":   {Product: "NetRecorder", ZeroLossPps: 45046.48232425811, LethalPps: 72074.37171881298, Probes: 9},
	"full/TrueSecure":    {Product: "TrueSecure", ZeroLossPps: 89353.96781337826, LethalPps: 142966.3485014052, Probes: 9},
	"full/StreamHunter":  {Product: "StreamHunter", ZeroLossPps: 262144, Indestructible: true, Probes: 2},
	"full/AgentSwarm":    {Product: "AgentSwarm", ZeroLossPps: 30457.044845559078, LethalPps: 48731.27175289453, Probes: 9},
	"full/FloorDropper":  {Product: "FloorDropper", ZeroLossPps: 0, LethalPps: 500, Probes: 2},
}

// TestDecidedProbeMatchesFullRun checks that a probe stopped at its
// verdict answers as a run-to-completion probe would: for each product,
// at rates on both sides of its zero-loss and lethal edges, under the
// quick and the full probe window. At the zero-loss edge, which is also
// the lethal ramp's first rate, MeasureThroughput's own conclusions
// must match the full run, and every result must match its pin.
func TestDecidedProbeMatchesFullRun(t *testing.T) {
	ctx := context.Background()
	// floor drops even at LoPps, so the search's probe there stops at
	// the first drop, before the sensor fails, and the lethal ramp must
	// probe the floor again rather than read that partial run.
	floor := products.AgentSwarm()
	floor.Name = "FloorDropper"
	floor.IDS.SensorQueue, floor.IDS.SensorSpeedFactor, floor.IDS.LethalDropsPerSec = 1, 0.001, 50
	seen := map[string]map[bool]bool{"drop": {}, "failure": {}}
	for _, w := range []struct {
		name string
		opts ThroughputOptions
	}{
		{"quick", ThroughputOptions{Seed: 11, Window: 100 * time.Millisecond, HiPps: 65536}},
		{"full", ThroughputOptions{Seed: 11}},
	} {
		opts := w.opts
		opts.applyDefaults()
		pool, err := packetPool(opts, 400)
		if err != nil {
			t.Fatal(err)
		}
		scans := detect.NewScanMemo(len(pool))
		for _, spec := range append(products.All(), floor) {
			res, err := MeasureThroughput(ctx, spec, w.opts)
			if err != nil {
				t.Fatal(err)
			}
			if want := pinnedThroughput[w.name+"/"+spec.Name]; *res != want {
				t.Errorf("%s %s: measured %+v, pinned %+v", w.name, spec.Name, *res, want)
			}
			edge := max(res.ZeroLossPps, opts.LoPps)
			rates := []float64{edge, edge * 1.15}
			if !res.Indestructible {
				rates = append(rates, res.LethalPps/1.6, res.LethalPps)
			}
			for _, pps := range rates {
				sim, inst, err := startProbe(ctx, spec, opts, pool, scans, pps)
				if err != nil {
					t.Fatal(err)
				}
				sim.Run()
				full := inst.Stats()
				if pps == edge && ((res.ZeroLossPps == 0) != (full.SensorDropped > 0) ||
					(!res.Indestructible && res.LethalPps == edge) != (full.SensorFailures > 0)) {
					t.Errorf("%s %s: zero-loss %.0f pps, lethal %.0f pps, but a full run at %.0f pps drops %d and fails %d",
						w.name, spec.Name, res.ZeroLossPps, res.LethalPps, edge, full.SensorDropped, full.SensorFailures)
				}
				for _, q := range []struct {
					name string
					ask  verdict
					want bool
				}{
					{"drop", anyDrop, full.SensorDropped > 0},
					{"failure", anyFailure, full.SensorFailures > 0},
				} {
					st, _, err := probe(ctx, spec, opts, pool, scans, pps, q.ask)
					if err != nil {
						t.Fatal(err)
					}
					if got := q.ask(st); got != q.want {
						t.Errorf("%s %s at %.0f pps: decided %s verdict %v, full run %v",
							w.name, spec.Name, pps, q.name, got, q.want)
					}
					seen[q.name][q.want] = true
				}
			}
		}
	}
	for q, answers := range seen {
		if !answers[true] || !answers[false] {
			t.Errorf("the %s question was answered only %v; the rates miss an edge", q, answers)
		}
	}
}
