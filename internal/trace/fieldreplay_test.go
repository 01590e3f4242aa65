package trace_test

import (
	"bytes"
	"context"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/products"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// TestFieldReplayMatchesLoneReplays holds a trace replayed once for a
// field, every product a deployment on one testbed, to each product's
// lone replay, field by field, at the scorecard's sensitivity and at 0.
// The field is the paper's four and NetRecorder 5.1, NetRecorder first,
// so the testbed's one learned profile belongs to its second
// deployment. It also counts the packets the taps see, which must equal
// a lone replay's: one network. The trace is cut into 4-record chunks,
// so the packets of many chunks are in flight at once and the shared
// testbed's scan memo, which keys a payload by its address, sees
// payloads from hundreds of chunk arenas.
//
// The test lives beside the trace package because only its tests can
// write a stream of short chunks (EncodeStream).
func TestFieldReplayMatchesLoneReplays(t *testing.T) {
	data := trace.EncodeStream(t, labeledTrace(t), 4)
	field := append(products.All(), products.NetRecorder51())
	if learns(t, field[0]) || !learns(t, field[1]) {
		t.Fatalf("field must open with a product that does not learn, then one that does")
	}
	var taps atomic.Int64
	eval.OfferHook = func(*packet.Packet, bool) { taps.Add(1) }
	t.Cleanup(func() { eval.OfferHook = nil })

	replay := func(specs []products.Spec, sens float64, reg *obs.Registry) ([]*eval.AccuracyResult, int64) {
		t.Helper()
		rd, err := trace.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		taps.Store(0)
		res, err := eval.RunTraceAccuracyStream(context.Background(), specs, rd, sens, 6*time.Second, 11, reg)
		if err != nil {
			t.Fatal(err)
		}
		if rd.ChunksRead() < 100 {
			t.Fatalf("replay decoded %d chunks; want the short chunks the test is about", rd.ChunksRead())
		}
		return res, taps.Load()
	}
	for _, sens := range []float64{0.6, 0} {
		shared, sharedTaps := replay(field, sens, obs.NewRegistry())
		if len(shared) != len(field) {
			t.Fatalf("sensitivity %v: %d results for a field of %d", sens, len(shared), len(field))
		}
		for i, spec := range field {
			lone, loneTaps := replay([]products.Spec{spec}, sens, nil)
			if loneTaps != sharedTaps {
				t.Fatalf("sensitivity %v: the field's replay tapped %d packets, %s's alone %d; want one network",
					sens, sharedTaps, spec.Name, loneTaps)
			}
			if !reflect.DeepEqual(shared[i], lone[0]) {
				t.Fatalf("sensitivity %v: %s %s on the shared testbed differs from its lone replay in %s",
					sens, spec.Name, spec.Version, firstDiff(shared[i], lone[0]))
			}
		}
	}
}

// learns reports whether spec's IDS trains a profile.
func learns(t *testing.T, spec products.Spec) bool {
	t.Helper()
	inst, err := spec.Instantiate(simtime.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return inst.Learns()
}

// firstDiff names the first field on which a and b differ.
func firstDiff(a, b *eval.AccuracyResult) string {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return va.Type().Field(i).Name
		}
	}
	return "an unexported field"
}

// labeledTrace records 15 s of background traffic with an exploit and a
// brute force spread over it.
func labeledTrace(t *testing.T) *trace.Trace {
	t.Helper()
	sim := simtime.New(23)
	rec := trace.NewRecorder(sim, "ecommerce-edge")
	seq := &packet.SeqCounter{}
	eps := traffic.Endpoints{
		External: []packet.Addr{packet.IPv4(203, 0, 1, 1), packet.IPv4(203, 0, 1, 2)},
		Cluster:  []packet.Addr{packet.IPv4(10, 1, 1, 1), packet.IPv4(10, 1, 1, 2), packet.IPv4(10, 1, 1, 3)},
	}
	gen, err := traffic.NewGenerator(sim, traffic.EcommerceEdge(), eps, seq, rec.Emit)
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.Start(40); err != nil {
		t.Fatal(err)
	}
	camp := attack.NewCampaign(&attack.Context{Sim: sim, Rng: sim.Stream("attack"), Seq: seq, Eps: eps, Emit: rec.Emit, Gen: gen})
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
