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
	// Probes counts the probe simulations actually run. A question at
	// a rate whose probe already ran to completion is answered from
	// that probe's Stats and adds none.
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

// verdict is the one yes/no question a probe answers, about a sensor
// counter that only grows: once it holds mid-run it holds at the end.
type verdict func(ids.Stats) bool

func anyDrop(st ids.Stats) bool    { return st.SensorDropped > 0 }
func anyFailure(st ids.Stats) bool { return st.SensorFailures > 0 }

// probeSteps is how many equal RunUntil windows a probe's load window
// is cut into; the probe checks its verdict after each.
const probeSteps = 64

// startProbe queues one window of the pool at a fixed rate for a fresh
// product instance.
func startProbe(ctx context.Context, spec products.Spec, opts ThroughputOptions, pool []*packet.Packet, pps float64) (*simtime.Sim, *ids.IDS, error) {
	sim := simtime.New(opts.Seed)
	bindSim(ctx, sim)
	inst, err := spec.Instantiate(sim)
	if err != nil {
		return nil, nil, err
	}
	if opts.Pool != nil {
		if err := inst.SetDataPool(opts.Pool); err != nil {
			return nil, nil, err
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
	return sim, inst, nil
}

// probe runs startProbe's load and asks ask of the instance's sensors.
// It stops at the first of probeSteps windows after which ask holds; a
// probe that never decides runs to completion, and complete reports
// that st is then the whole run's Stats. The windows change no event
// order: nothing is scheduled between them.
func probe(ctx context.Context, spec products.Spec, opts ThroughputOptions, pool []*packet.Packet, pps float64, ask verdict) (st ids.Stats, complete bool, err error) {
	sim, inst, err := startProbe(ctx, spec, opts, pool, pps)
	if err != nil {
		return ids.Stats{}, false, err
	}
	for k := 1; k <= probeSteps; k++ {
		sim.RunUntil(time.Duration(k) * opts.Window / probeSteps)
		if err := sim.Interrupted(); err != nil {
			return ids.Stats{}, false, fmt.Errorf("eval: throughput probe interrupted: %w", err)
		}
		if st := inst.Stats(); ask(st) {
			return st, false, nil
		}
	}
	sim.Run()
	if err := sim.Interrupted(); err != nil {
		return ids.Stats{}, false, fmt.Errorf("eval: throughput probe interrupted: %w", err)
	}
	return inst.Stats(), true, nil
}

// MeasureThroughput finds the zero-loss throughput by binary search in
// log space, then ramps upward to find the lethal dose. Each probe
// stops at its verdict, and a question at a rate already probed to
// completion reuses that probe: the ramp starts at the zero-loss rate,
// which the search always ran to completion. Cancelling ctx aborts the
// in-flight probe at the kernel's interrupt stride and surfaces the
// cancellation error.
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
	done := make(map[float64]ids.Stats) // probes run to completion, by rate
	at := func(pps float64, ask verdict) (bool, error) {
		if st, ok := done[pps]; ok {
			return ask(st), nil
		}
		res.Probes++
		st, complete, err := probe(ctx, spec, opts, pool, pps, ask)
		if err != nil {
			return false, err
		}
		if complete {
			done[pps] = st
		}
		return ask(st), nil
	}

	// Establish bracket: lo must pass, hi must fail; expand/shrink as
	// needed.
	lo, hi := opts.LoPps, opts.HiPps
	if d, err := at(lo, anyDrop); err != nil {
		return nil, err
	} else if d {
		// Even the floor drops; report the floor as the bound.
		res.ZeroLossPps = 0
	} else {
		if d, err := at(hi, anyDrop); err != nil {
			return nil, err
		} else if !d {
			// Never drops in range: zero-loss is at least hi.
			res.ZeroLossPps = hi
		} else {
			for hi/lo > 1.15 {
				mid := math.Sqrt(lo * hi)
				d, err := at(mid, anyDrop)
				if err != nil {
					return nil, err
				}
				if !d {
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
		failed, err := at(rate, anyFailure)
		if err != nil {
			return nil, err
		}
		if failed {
			res.LethalPps = rate
			res.Indestructible = false
			break
		}
		rate *= 1.6
	}
	return res, nil
}
