package eval

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/ids"
	"repro/internal/packet"
	"repro/internal/products"
	"repro/internal/simtime"
	"repro/internal/traffic"
)

// ThroughputOptions bound the load search. Zero values take defaults
// sized for the benchmark harness; tests shrink them.
type ThroughputOptions struct {
	// Window is the sustained-load probe duration (default 300ms).
	Window time.Duration
	// LoPps / HiPps bound the search (defaults 500 / 262144).
	LoPps, HiPps float64
	// Profile supplies realistic packet content (default e-commerce).
	Profile traffic.Profile
	// Pool, when set, is installed on every probe instance (Data Pool
	// Selectability: measure capacity with the cluster's own protocols
	// excluded from analysis).
	Pool *ids.DataPool
	Seed int64
}

func (o *ThroughputOptions) applyDefaults() {
	if o.Window == 0 {
		o.Window = 300 * time.Millisecond
	}
	if o.LoPps == 0 {
		o.LoPps = 500
	}
	if o.HiPps == 0 {
		o.HiPps = 262144
	}
	if o.Profile.Name == "" {
		o.Profile = traffic.EcommerceEdge()
	}
	if o.Seed == 0 {
		o.Seed = 42
	}
}

// ThroughputResult holds the Maximal-Throughput-with-Zero-Loss and
// Network-Lethal-Dose observations.
type ThroughputResult struct {
	Product string
	// ZeroLossPps is the highest probed rate with zero sensor drops.
	ZeroLossPps float64
	// LethalPps is the lowest probed rate that killed a sensor; zero if
	// Indestructible.
	LethalPps float64
	// Indestructible means no probe up to HiPps caused a sensor failure.
	Indestructible bool
	// Probes counts load points evaluated.
	Probes int
}

// packetPool builds a reusable pool of realistically-filled packets from
// the profile. The pool matters: the paper's Lesson 1 is that throughput
// probing with meaningless payloads does not exercise payload-inspecting
// engines, so the pool is drawn from real dialogues.
func packetPool(opts ThroughputOptions, n int) ([]*packet.Packet, error) {
	sim := simtime.New(opts.Seed)
	eps := traffic.Endpoints{
		External: []packet.Addr{packet.IPv4(203, 0, 1, 1), packet.IPv4(203, 0, 1, 2)},
		Cluster:  []packet.Addr{packet.IPv4(10, 1, 1, 1), packet.IPv4(10, 1, 1, 2), packet.IPv4(10, 1, 1, 3)},
	}
	pool := make([]*packet.Packet, 0, n)
	gen, err := traffic.NewGenerator(sim, opts.Profile, eps, nil, func(p *packet.Packet) {
		if len(pool) < n {
			pool = append(pool, p)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("eval: throughput packet pool: %w", err)
	}
	if err := fillPool(sim, &pool, n, gen.StartSession); err != nil {
		return nil, fmt.Errorf("eval: profile %q: %w", opts.Profile.Name, err)
	}
	return pool[:n], nil
}

// fillPool drives start until the pool holds n packets. Every session a
// well-formed profile plays emits at least one packet, so n sessions
// always suffice; the cap converts a zero-emission misconfiguration
// into an error instead of an infinite loop.
func fillPool(sim *simtime.Sim, pool *[]*packet.Packet, n int, start func()) error {
	for sessions := 0; len(*pool) < n; sessions++ {
		if sessions > n {
			return fmt.Errorf("packet pool stalled at %d of %d packets after %d sessions", len(*pool), n, sessions)
		}
		start()
		sim.Run()
	}
	return nil
}

// probe offers the pool at a fixed rate to a fresh product instance and
// reports drops and sensor failures.
func probe(ctx context.Context, spec products.Spec, opts ThroughputOptions, pool []*packet.Packet, pps float64) (drops uint64, failures int, err error) {
	sim := simtime.New(opts.Seed)
	bindSim(ctx, sim)
	inst, err := spec.Instantiate(sim)
	if err != nil {
		return 0, 0, err
	}
	if opts.Pool != nil {
		if err := inst.SetDataPool(opts.Pool); err != nil {
			return 0, 0, err
		}
	}
	n := int(pps * opts.Window.Seconds())
	if n < 1 {
		n = 1
	}
	gap := time.Duration(float64(opts.Window) / float64(n))
	feed := simtime.NewLane(sim, func(p *packet.Packet) { inst.Ingest(p) })
	for i := 0; i < n; i++ {
		feed.Push(time.Duration(i)*gap, pool[i%len(pool)])
	}
	sim.Run()
	if err := sim.Interrupted(); err != nil {
		return 0, 0, fmt.Errorf("eval: throughput probe interrupted: %w", err)
	}
	st := inst.Stats()
	return st.SensorDropped, st.SensorFailures, nil
}

// MeasureThroughput finds the zero-loss throughput by binary search in
// log space, then ramps upward to find the lethal dose. Cancelling ctx
// aborts the in-flight probe at the kernel's interrupt stride and
// surfaces the cancellation error.
func MeasureThroughput(ctx context.Context, spec products.Spec, opts ThroughputOptions) (*ThroughputResult, error) {
	opts.applyDefaults()
	if opts.LoPps >= opts.HiPps {
		return nil, fmt.Errorf("eval: throughput bounds inverted (%v >= %v)", opts.LoPps, opts.HiPps)
	}
	pool, err := packetPool(opts, 400)
	if err != nil {
		return nil, err
	}
	res := &ThroughputResult{Product: spec.Name}

	// Establish bracket: lo must pass, hi must fail; expand/shrink as
	// needed.
	lo, hi := opts.LoPps, opts.HiPps
	dropsAt := func(pps float64) (uint64, int, error) {
		res.Probes++
		return probe(ctx, spec, opts, pool, pps)
	}
	if d, _, err := dropsAt(lo); err != nil {
		return nil, err
	} else if d > 0 {
		// Even the floor drops; report the floor as the bound.
		res.ZeroLossPps = 0
	} else {
		if d, _, err := dropsAt(hi); err != nil {
			return nil, err
		} else if d == 0 {
			// Never drops in range: zero-loss is at least hi.
			res.ZeroLossPps = hi
		} else {
			for hi/lo > 1.15 {
				mid := math.Sqrt(lo * hi)
				d, _, err := dropsAt(mid)
				if err != nil {
					return nil, err
				}
				if d == 0 {
					lo = mid
				} else {
					hi = mid
				}
			}
			res.ZeroLossPps = lo
		}
	}

	// Lethal dose: ramp from max(zero-loss, floor) upward.
	rate := res.ZeroLossPps
	if rate < opts.LoPps {
		rate = opts.LoPps
	}
	res.Indestructible = true
	for rate <= opts.HiPps {
		_, failures, err := dropsAt(rate)
		if err != nil {
			return nil, err
		}
		if failures > 0 {
			res.LethalPps = rate
			res.Indestructible = false
			break
		}
		rate *= 1.6
	}
	return res, nil
}
