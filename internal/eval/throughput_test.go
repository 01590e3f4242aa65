package eval

// Tests for the throughput harness: a bad setup must surface as a
// construction-time error, never a panic or a hang, and a probe that
// stops at its verdict must answer as a full run would.

import (
	"context"
	"strings"
	"testing"
	"time"

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

// TestDecidedProbeMatchesFullRun checks that a probe stopped at its
// verdict answers as a run-to-completion probe would: for each product,
// at rates on both sides of its zero-loss and lethal edges, under the
// quick and the full probe window. At the zero-loss edge, which is also
// the lethal ramp's first rate, MeasureThroughput's own conclusions
// must match the full run.
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
		for _, spec := range append(products.All(), floor) {
			res, err := MeasureThroughput(ctx, spec, w.opts)
			if err != nil {
				t.Fatal(err)
			}
			edge := max(res.ZeroLossPps, opts.LoPps)
			rates := []float64{edge, edge * 1.15}
			if !res.Indestructible {
				rates = append(rates, res.LethalPps/1.6, res.LethalPps)
			}
			for _, pps := range rates {
				sim, inst, err := startProbe(ctx, spec, opts, pool, pps)
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
					st, _, err := probe(ctx, spec, opts, pool, pps, q.ask)
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
