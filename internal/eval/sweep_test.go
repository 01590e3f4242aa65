package eval

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/packet"
	"repro/internal/products"
)

// sweepTestOptions is the small sizing the shared-testbed tests run at.
func sweepTestOptions(workers int) SweepOptions {
	return SweepOptions{
		Seed: 23, Points: 5, Workers: workers,
		TrainFor: 5 * time.Second, RunFor: 8 * time.Second, Pps: 200,
	}
}

// firstDiff names the first field of AccuracyResult, exported or not,
// on which a and b differ.
func firstDiff(a, b *AccuracyResult) string {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			return va.Type().Field(i).Name
		}
	}
	return "none"
}

// TestSweepPointsMatchStandalone holds every point of a sweep whose
// points share a testbed to the point SweepPointAt runs on a testbed of
// its own, field by field, Raw included. It covers every product
// (TrueSecure and AgentSwarm deploy host agents and rts hosts per
// point) on one testbed and on four.
func TestSweepPointsMatchStandalone(t *testing.T) {
	for _, spec := range products.All() {
		t.Run(spec.Name, func(t *testing.T) {
			opts := sweepTestOptions(0)
			want := make([]SweepPoint, opts.Points)
			for i := range want {
				p, err := SweepPointAt(context.Background(), spec, opts, i)
				if err != nil {
					t.Fatalf("SweepPointAt(%d): %v", i, err)
				}
				want[i] = p
			}
			for _, workers := range []int{1, 4} {
				res, err := SensitivitySweep(context.Background(), spec, sweepTestOptions(workers))
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if len(res.Points) != len(want) {
					t.Fatalf("workers=%d: %d points, want %d", workers, len(res.Points), len(want))
				}
				for i, got := range res.Points {
					if !reflect.DeepEqual(got, want[i]) {
						t.Fatalf("workers=%d point %d differs from SweepPointAt in Raw.%s", workers, i, firstDiff(got.Raw, want[i].Raw))
					}
				}
			}
		})
	}
}

// TestSweepCancelledMidRun cancels a sweep in its attack phase. The
// sweep must return the context error with a result holding only the
// points of completed testbeds (none on one testbed) and no EER, and
// every testbed must stop within the kernel's interrupt stride of 1,024
// events, each tapped packet being one event.
func TestSweepCancelledMidRun(t *testing.T) {
	const stride = 1024
	defer func() { OfferHook = nil }()
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var attacked, late atomic.Int64
		OfferHook = func(_ *packet.Packet, training bool) {
			switch {
			case ctx.Err() != nil:
				late.Add(1)
			case !training && attacked.Add(1) == 500:
				cancel()
			}
		}
		opts := sweepTestOptions(workers)
		res, err := SensitivitySweep(ctx, products.TrueSecure(), opts)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if res == nil {
			t.Fatalf("workers=%d: no partial result", workers)
		}
		if workers == 1 && len(res.Points) != 0 {
			t.Fatalf("workers=1: %d points completed on the one testbed", len(res.Points))
		}
		if len(res.Points) >= opts.Points {
			t.Fatalf("workers=%d: all %d points completed", workers, len(res.Points))
		}
		for i, p := range res.Points {
			if p.Raw == nil || i > 0 && p.Sensitivity <= res.Points[i-1].Sensitivity {
				t.Fatalf("workers=%d: partial point %d is %+v", workers, i, p)
			}
		}
		if res.EER != 0 || res.EERError != 0 || res.EERValid {
			t.Fatalf("workers=%d: partial result has an EER: %+v", workers, res)
		}
		t.Logf("workers=%d: %d points completed, %d packets tapped after the cancel", workers, len(res.Points), late.Load())
		if beds := int64(min(workers, opts.Points)); late.Load() > beds*stride {
			t.Fatalf("workers=%d: %d packets tapped after the cancel, want at most %d", workers, late.Load(), beds*stride)
		}
	}
}

// TestSharedTestbedLimits pins the two limits of a testbed with several
// deployments, here two products as on the field's accuracy testbed:
// the in-line tap acts on one IDS's verdict, and a fault scenario's
// link faults would hit every deployment's network.
func TestSharedTestbedLimits(t *testing.T) {
	deps := []deploy{{spec: products.NetRecorder()}, {spec: products.TrueSecure(), entry: 1}}
	if _, err := newTestbed(TestbedConfig{Seed: 1, Tap: TapInline}, deps...); err == nil {
		t.Fatal("two deployments on an in-line tap: no error")
	}
	sc, err := faults.Load("../../examples/faults/span-degrade.json")
	if err != nil {
		t.Fatal(err)
	}
	tb, err := newTestbed(TestbedConfig{Seed: 1, TrainFor: time.Second}, deps...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runDeployments(tb, sc, []float64{0, 1}, 8*time.Second, 1, 1); err == nil {
		t.Fatal("fault scenario on two deployments: no error")
	}
}
