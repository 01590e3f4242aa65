package eval

import (
	"context"
	"errors"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/packet"
	"repro/internal/products"
)

// fieldSpecs is the paper's field plus NetRecorder 5.1, which shares
// NetRecorder's Name but not its signature corpus: results keyed by
// product name would collide on it.
func fieldSpecs() []products.Spec {
	return append(products.All(), products.NetRecorder51())
}

// evalDiff names the first field of ProductEvaluation, Spec aside (it
// holds funcs), on which a and b differ, down to the AccuracyResult
// field when the accuracy results differ; "" when none does. The card
// is scored from the results, so it is compared last.
func evalDiff(a, b *ProductEvaluation) string {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	for _, card := range []bool{false, true} {
		for i := 0; i < va.NumField(); i++ {
			name := va.Type().Field(i).Name
			if name == "Spec" || (name == "Card") != card || reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
				continue
			}
			if name == "Accuracy" && a.Accuracy != nil && b.Accuracy != nil {
				return name + "." + firstDiff(a.Accuracy, b.Accuracy)
			}
			return name
		}
	}
	return ""
}

// tapCounter counts the packets every testbed's tap offers while it is
// installed as OfferHook.
type tapCounter struct{ n atomic.Int64 }

func (c *tapCounter) install(t *testing.T) {
	t.Cleanup(func() { OfferHook = nil })
	OfferHook = func(*packet.Packet, bool) { c.n.Add(1) }
}

// count returns the taps run makes.
func (c *tapCounter) count(t *testing.T, run func() error) int64 {
	t.Helper()
	c.n.Store(0)
	if err := run(); err != nil {
		t.Fatal(err)
	}
	return c.n.Load()
}

// experimentTaps counts the taps of the scorecard's accuracy run, sweep
// and latency run, each run alone for one product. None depends on the
// product: a mirror tap sees the network, which no deployment changes.
func experimentTaps(t *testing.T, c *tapCounter, opts Options) (acc, sweep, lat int64) {
	t.Helper()
	spec := products.TrueSecure()
	acc = c.count(t, func() error {
		cfg, attackFor, strength := opts.accuracyRun()
		tb, err := NewTestbed(spec, cfg)
		if err != nil {
			return err
		}
		_, err = RunAccuracy(tb, scorecardSensitivity, attackFor, strength)
		return err
	})
	sweep = c.count(t, func() error {
		_, err := SensitivitySweep(context.Background(), spec, opts.sweepOptions())
		return err
	})
	lat = c.count(t, func() error {
		_, err := MeasureInducedLatency(spec, TapMirror, opts.Seed)
		return err
	})
	return acc, sweep, lat
}

// TestFieldMatchesProductEvaluations holds every product's evaluation
// from EvaluateAll, whose accuracy runs and sweep points share two
// testbeds, to EvaluateProduct of that product alone, field by field,
// at one worker and at four. It also pins the mechanism as a count: the
// field taps one accuracy network, one sweep network and one latency
// network per product.
func TestFieldMatchesProductEvaluations(t *testing.T) {
	if testing.Short() {
		t.Skip("five product evaluations and two field evaluations are too slow for -short")
	}
	var taps tapCounter
	taps.install(t)
	opts := Options{Seed: 11, Quick: true}
	acc, sweep, lat := experimentTaps(t, &taps, opts)

	reg := core.StandardRegistry()
	specs := fieldSpecs()
	want := make([]*ProductEvaluation, len(specs))
	for i, spec := range specs {
		ev, err := EvaluateProduct(context.Background(), spec, reg, opts)
		if err != nil {
			t.Fatalf("EvaluateProduct(%s): %v", spec.Name, err)
		}
		want[i] = ev
	}
	for _, workers := range []int{1, 4} {
		opts.Workers = workers
		var evs []*ProductEvaluation
		got := taps.count(t, func() error {
			var err error
			evs, err = EvaluateAll(context.Background(), specs, reg, opts)
			return err
		})
		for i, ev := range evs {
			if d := evalDiff(ev, want[i]); d != "" {
				t.Fatalf("workers=%d: entry %d (%s %s) differs from EvaluateProduct in %s",
					workers, i, specs[i].Name, specs[i].Version, d)
			}
		}
		if n := int64(len(specs)); got != acc+sweep+n*lat {
			t.Fatalf("workers=%d: the field tapped %d packets, want %d: one accuracy run (%d), one sweep (%d) and %d latency runs (%d each)",
				workers, got, acc+sweep+n*lat, acc, sweep, n, lat)
		}
	}
}

// TestEvaluateAllCancelled cancels a field evaluation at its n-th tapped
// packet. It must return context.Canceled with the field's slots, each
// nil or its product's complete evaluation, and a cancel that lands in
// the shared testbeds must fill none. With one worker the jobs run in
// order (the sweep testbed, the accuracy testbed, then each product's
// throughput, latency and impact runs), so the tap counts of
// experimentTaps say where each cancel lands. With two, the first taps
// come from the two shared testbeds, whichever finishes first.
func TestEvaluateAllCancelled(t *testing.T) {
	if testing.Short() {
		t.Skip("field evaluations are too slow for -short")
	}
	var taps tapCounter
	taps.install(t)
	opts := Options{Seed: 11, Quick: true}
	acc, sweep, lat := experimentTaps(t, &taps, opts)
	specs := products.All()
	reg := core.StandardRegistry()
	full, err := EvaluateAll(context.Background(), specs, reg, opts)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		workers int
		at      int64 // the tap that cancels
		filled  int   // the leading slots the cancel leaves filled
	}{
		{"sweep", 1, sweep / 2, 0},
		{"accuracy", 1, sweep + acc/2, 0},
		{"second latency run", 1, sweep + acc + lat + lat/2, 1},
		{"shared testbeds", 2, min(sweep, acc) / 2, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var n atomic.Int64
			OfferHook = func(*packet.Packet, bool) {
				if n.Add(1) == c.at {
					cancel()
				}
			}
			opts.Workers = c.workers
			evs, err := EvaluateAll(ctx, specs, reg, opts)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("err = %v, want context.Canceled", err)
			}
			if len(evs) != len(specs) {
				t.Fatalf("%d slots for %d products", len(evs), len(specs))
			}
			for i, ev := range evs {
				switch {
				case i < c.filled && ev == nil:
					t.Errorf("slot %d (%s) is empty, though its experiments completed", i, specs[i].Name)
				case i >= c.filled && ev != nil:
					t.Errorf("slot %d (%s) is filled, though the cancel landed before its experiments completed", i, specs[i].Name)
				case ev != nil:
					if d := evalDiff(ev, full[i]); d != "" {
						t.Errorf("slot %d (%s) differs from the uncancelled evaluation in %s", i, specs[i].Name, d)
					}
				}
			}
		})
	}
}
