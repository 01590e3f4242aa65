// Command trafficgen generates canned evaluation traces: background
// traffic from a site profile with the standard attack campaign layered
// on top, written in the streaming chunked binary format IDT2 (with
// ground-truth sidecar) or, with -json, as JSON lines for inspection.
// These are the "canned data with known attack content" the paper's
// Lesson 2 calls for. replay and idsevald read IDT2 only.
//
// Binary output streams: packets are encoded chunk-by-chunk as the
// simulation emits them, so generation memory is O(chunk) regardless of
// trace length. JSON output still materializes the trace first.
//
// Usage:
//
//	trafficgen -o trace.idt2 [-profile ecommerce|cluster] [-seconds 60]
//	           [-pps 600] [-seed 21] [-attacks] [-strength 1.0]
//	           [-random-payloads] [-json] [-hosts 6] [-external 3]
//	           [-segments 0] [-timeout 5m] [-telemetry]
//	           [-telemetry-jsonl F] [-listen ADDR] [-trace-out F]
//
// With -segments N the trace models the sharded large topology: N
// per-segment background generators (each with its own RNG stream and
// its own 10.(s+1).x.y /16 host block, -hosts hosts per segment) share
// one virtual clock, sequence space, and output trace, and the attack
// campaign spreads across the union of segments. Aggregate -pps is
// split evenly across segments. Those addresses lie outside the flat
// testbed's address plan, so they do not count toward the footer's
// cluster host total, and replay runs such a trace on the default-sized
// cluster.
//
// File output is atomic: the trace streams into a temp file in the
// output directory and is renamed into place only after the footer is
// written, so a crash or Ctrl-C never leaves a torn trace at -o.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/attack"
	"repro/internal/cli"
	"repro/internal/fsio"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/traffic"
)

func main() {
	out := flag.String("o", "", "output file (required; '-' for stdout)")
	profileName := flag.String("profile", "ecommerce", "traffic profile: ecommerce, cluster, or campus")
	seconds := flag.Float64("seconds", 60, "trace duration in virtual seconds")
	pps := flag.Float64("pps", 600, "target background packet rate")
	seed := flag.Int64("seed", 21, "generation seed")
	withAttacks := flag.Bool("attacks", true, "layer the standard attack campaign over the background")
	strength := flag.Float64("strength", 1.0, "attack intensity multiplier")
	randomPayloads := flag.Bool("random-payloads", false, "replace payloads with random bytes (Lesson-1 ablation)")
	asJSON := flag.Bool("json", false, "write JSON lines instead of binary")
	hosts := flag.Int("hosts", 6, "cluster host count (per segment with -segments)")
	external := flag.Int("external", 3, "external host count")
	segments := flag.Int("segments", 0, "per-segment generators over the large-topology address plan (0 = single flat cluster)")
	timeout := flag.Duration("timeout", 0, "abort generation after this wall-clock duration (0 = none)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	o := cli.AddObsFlags(flag.CommandLine)
	flag.Parse()

	ctx, stop := cli.Context(*timeout)
	defer stop()
	defer o.Close()

	if *out == "" {
		fatal(fmt.Errorf("-o is required"))
	}
	stopProf, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	reg := o.Registry()
	if reg == nil {
		reg = obs.NewRegistry()
	}
	o.SetSnapshot(reg.Snapshot)
	if err := o.Serve(ctx); err != nil {
		fatal(err)
	}
	var profile traffic.Profile
	switch *profileName {
	case "ecommerce":
		profile = traffic.EcommerceEdge()
	case "cluster":
		profile = traffic.RealTimeCluster()
	case "campus":
		profile = traffic.EnterpriseCampus()
	default:
		fatal(fmt.Errorf("unknown profile %q", *profileName))
	}
	if *randomPayloads {
		profile = profile.WithRandomPayloads()
	}

	// File output goes through an atomic temp file: commit renames it
	// into place, and any fatal path (including Ctrl-C) aborts the temp
	// so -o never holds a torn trace.
	var f io.Writer
	commit := func() error { return nil }
	if *out == "-" {
		f = os.Stdout
	} else {
		af, err := fsio.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer af.Abort()
		cleanup = af.Abort // fatal exits without running defers
		f = af
		commit = af.Commit
	}

	sim := simtime.New(*seed)
	sim.SetInterrupt(ctx.Err)
	var emit func(p *packet.Packet)
	var rec *trace.Recorder        // JSON path: whole trace in memory
	var srec *trace.StreamRecorder // binary path: O(chunk) streaming
	var sw *trace.Writer
	if *asJSON {
		rec = trace.NewRecorder(sim, profile.Name)
		emit = rec.Emit
	} else {
		sw, err = trace.NewWriter(f, profile.Name, *seed)
		if err != nil {
			fatal(err)
		}
		srec = trace.NewStreamRecorder(sim, sw)
		emit = srec.Emit
	}

	if *segments < 0 || *segments > 254 {
		fatal(fmt.Errorf("-segments %d out of range [0, 254]", *segments))
	}
	seq := &packet.SeqCounter{}
	eps := traffic.Endpoints{} // union of all segments; the attack campaign draws from it
	for i := 0; i < *external; i++ {
		eps.External = append(eps.External, netsim.ExternalAddr(i))
	}
	var gens []*traffic.Generator
	if *segments > 0 {
		// One generator per leaf segment. The profile-name suffix gives
		// each its own deterministic RNG stream, so the per-segment
		// traffic mix is independent even though all segments share one
		// clock, sequence space, and trace.
		for s := 0; s < *segments; s++ {
			seg := profile
			seg.Name = fmt.Sprintf("%s/seg%03d", profile.Name, s)
			segEps := traffic.Endpoints{External: eps.External}
			for h := 0; h < *hosts; h++ {
				addr := netsim.LargeAddr(s, h)
				segEps.Cluster = append(segEps.Cluster, addr)
				eps.Cluster = append(eps.Cluster, addr)
			}
			gen, err := traffic.NewGenerator(sim, seg, segEps, seq, emit)
			if err != nil {
				fatal(err)
			}
			if err := gen.Start(gen.SessionRateForPps(*pps / float64(*segments))); err != nil {
				fatal(err)
			}
			gens = append(gens, gen)
		}
	} else {
		for i := 0; i < *hosts; i++ {
			eps.Cluster = append(eps.Cluster, netsim.ClusterAddr(i))
		}
		gen, err := traffic.NewGenerator(sim, profile, eps, seq, emit)
		if err != nil {
			fatal(err)
		}
		if err := gen.Start(gen.SessionRateForPps(*pps)); err != nil {
			fatal(err)
		}
		gens = append(gens, gen)
	}
	dur := time.Duration(*seconds * float64(time.Second))
	var camp *attack.Campaign
	if *withAttacks {
		ctx := &attack.Context{Sim: sim, Rng: sim.Stream("attack"), Seq: seq, Emit: emit, Eps: eps, Gen: gens[0]}
		camp = attack.NewCampaign(ctx)
		if err := camp.SpreadAcross(dur/10, dur*8/10, attack.StandardScenarios(attack.Intensity(*strength))); err != nil {
			fatal(err)
		}
	}
	sp := reg.StartSpan("trafficgen.generate")
	sim.RunUntil(dur)
	for _, g := range gens {
		g.Stop()
	}
	sim.Run()
	sp.End()
	if err := sim.Interrupted(); err != nil {
		fatal(fmt.Errorf("generation interrupted (%v) — no trace written", err))
	}

	if *asJSON {
		if camp != nil {
			rec.SetIncidents(camp.Incidents())
		}
		tr := rec.Trace()
		s := tr.Summarize()
		fmt.Fprintf(os.Stderr, "trace: %d packets (%d malicious) over %v, %d incidents, %.0f pps avg, %d bytes\n",
			s.Packets, s.MaliciousPkts, s.Duration.Round(time.Millisecond), s.Incidents, s.AvgPps, s.Bytes)
		if err := tr.WriteJSONL(f); err != nil {
			fatal(err)
		}
		if err := commit(); err != nil {
			fatal(err)
		}
		publishTraceStats(reg, uint64(s.Packets), uint64(s.MaliciousPkts), uint64(s.Bytes), 0)
		finish(o, stopProf)
		return
	}

	if err := srec.Err(); err != nil {
		fatal(err)
	}
	var incidents int
	if camp != nil {
		sw.SetIncidents(camp.Incidents())
		incidents = len(camp.Incidents())
	}
	if err := sw.Close(); err != nil {
		fatal(err)
	}
	if err := commit(); err != nil {
		fatal(err)
	}
	s := sw.Stats()
	avgPps := 0.0
	if d := s.Duration(); d > 0 {
		avgPps = float64(s.Packets) / d.Seconds()
	}
	fmt.Fprintf(os.Stderr, "trace: %d packets (%d malicious) over %v, %d incidents, %.0f pps avg, %d bytes (%d chunks)\n",
		s.Packets, s.MaliciousPkts, s.Duration().Round(time.Millisecond), incidents, avgPps, s.Bytes, s.Chunks)
	publishTraceStats(reg, s.Packets, s.MaliciousPkts, s.Bytes, s.Chunks)
	finish(o, stopProf)
}

// publishTraceStats records the final trace shape as gauges so the
// telemetry dump carries the same numbers the stderr summary prints.
func publishTraceStats(reg *obs.Registry, packets, malicious, bytes uint64, chunks int) {
	reg.Gauge("trafficgen.packets").Set(int64(packets))
	reg.Gauge("trafficgen.malicious").Set(int64(malicious))
	reg.Gauge("trafficgen.bytes").Set(int64(bytes))
	reg.Gauge("trafficgen.chunks").Set(int64(chunks))
}

// finish exports telemetry per the obs flags and stops any profiles.
func finish(o *cli.ObsFlags, stopProf func() error) {
	if err := o.Finish(nil); err != nil {
		fatal(err)
	}
	if err := stopProf(); err != nil {
		fatal(err)
	}
}

// cleanup aborts the in-progress atomic trace write on fatal exit, so
// no .tmp file is left behind.
var cleanup func()

func fatal(err error) {
	if cleanup != nil {
		cleanup()
	}
	fmt.Fprintln(os.Stderr, "trafficgen:", err)
	os.Exit(1)
}
