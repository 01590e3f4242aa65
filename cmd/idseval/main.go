// Command idseval runs the full metrics-based evaluation of the product
// field and prints the scorecards, comparison matrices, and weighted
// rankings — the top-level reproduction of the paper's prototype
// evaluation of three commercial IDS products (plus the AAFID-class
// research system).
//
// Usage:
//
//	idseval [-quick] [-seed N] [-workers N] [-class logistical|architectural|performance|all]
//	        [-posture realtime|distributed|uniform] [-product NAME] [-tables] [-timeout 10m]
//	        [-telemetry] [-telemetry-jsonl F] [-listen ADDR] [-trace-out F]
//	idseval -shards N [-scale-segments N] [-scale-hosts N] [-scale-duration D] [-product NAME]
//
// With -shards the tool runs the at-scale sharded simulation instead of
// the scorecard matrix: one large segmented topology partitioned across
// conservative parallel event domains, N executor goroutines. Stdout is
// byte-identical for every -shards value at the same seed (the report
// carries only deterministic fields); wall-clock throughput goes to
// stderr.
//
// Evaluations fan out across every core by default; -workers 1 forces
// the serial path. Either way the output is bit-identical for a given
// seed — every experiment owns its simulation and derives its RNG
// streams from the seed alone. Ctrl-C (or -timeout expiry) drains
// in-flight experiments at a clean event boundary and prints the
// completed product reports with an INTERRUPTED banner.
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/products"
	"repro/internal/report"
	"repro/internal/requirements"
)

func main() {
	quick := flag.Bool("quick", false, "shrink experiment durations (smoke-test scale)")
	seed := flag.Int64("seed", 11, "simulation seed")
	workers := flag.Int("workers", 0, "worker-pool bound for parallel evaluation (0 = all cores, 1 = serial)")
	timeout := flag.Duration("timeout", 0, "abort the evaluation after this wall-clock duration (0 = none)")
	class := flag.String("class", "all", "matrix class to print: logistical, architectural, performance, all")
	posture := flag.String("posture", "realtime", "weighting posture: realtime, distributed, uniform")
	product := flag.String("product", "", "evaluate only the named product")
	tables := flag.Bool("tables", false, "print the Table 1-3 metric definitions and exit")
	shards := flag.Int("shards", 0, "run the sharded at-scale simulation with this many executor goroutines (0 = classic scorecard evaluation)")
	scaleSegments := flag.Int("scale-segments", 8, "sharded run: leaf-switch segments (one event domain each)")
	scaleHosts := flag.Int("scale-hosts", 40, "sharded run: hosts per segment")
	scaleDuration := flag.Duration("scale-duration", 0, "sharded run: scored detection phase length (default 5s)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	o := cli.AddObsFlags(flag.CommandLine)
	flag.Parse()

	ctx, stop := cli.Context(*timeout)
	defer stop()
	defer o.Close()

	stopProf, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}

	reg := core.StandardRegistry()
	out := os.Stdout

	if *tables {
		for _, c := range core.Classes {
			if err := report.MetricTable(out, reg, c, false); err != nil {
				fatal(err)
			}
			fmt.Fprintln(out)
		}
		if err := stopProf(); err != nil {
			fatal(err)
		}
		return
	}

	field := products.All()
	if *product != "" {
		spec, ok := products.Find(*product)
		if !ok {
			fatal(fmt.Errorf("unknown product %q", *product))
		}
		field = []products.Spec{spec}
	}

	if *shards > 0 {
		if err := runShardedScale(ctx, out, field, o, shardedOpts{
			seed: *seed, shards: *shards, segments: *scaleSegments,
			hosts: *scaleHosts, duration: *scaleDuration,
		}); err != nil {
			fatal(err)
		}
		if err := stopProf(); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Fprintf(out, "Evaluating %d product(s) against the %d-metric standard (seed %d, quick=%v)\n\n",
		len(field), reg.Len(), *seed, *quick)

	// Each product writes its telemetry into the one registry under
	// "<Product>.", so a live /metrics shows products while they run.
	if err := o.Serve(ctx); err != nil {
		fatal(err)
	}
	evs, err := eval.EvaluateAll(ctx, field, reg, eval.Options{
		Seed: *seed, Quick: *quick, Workers: *workers, Obs: o.Registry(),
	})
	if err != nil {
		if !cli.Interrupted(err) || evs == nil {
			fatal(err)
		}
		// Print every product that finished before the interrupt, then
		// the banner; rankings over a partial field would mislead.
		done := 0
		for _, ev := range evs {
			if ev == nil {
				continue
			}
			if perr := report.EvaluationReport(out, ev); perr != nil {
				fatal(perr)
			}
			done++
		}
		cli.Banner(out, done, len(field))
		os.Exit(1)
	}

	cards := make([]*core.Scorecard, len(evs))
	for i, ev := range evs {
		if err := report.EvaluationReport(out, ev); err != nil {
			fatal(err)
		}
		cards[i] = ev.Card
	}

	classes := core.Classes
	switch *class {
	case "logistical":
		classes = []core.Class{core.Logistical}
	case "architectural":
		classes = []core.Class{core.Architectural}
	case "performance":
		classes = []core.Class{core.Performance}
	case "all":
	default:
		fatal(fmt.Errorf("unknown class %q", *class))
	}
	for _, c := range classes {
		fmt.Fprintf(out, "--- %s score matrix ---\n", c)
		if err := report.ScoreMatrix(out, reg, c, cards, true); err != nil {
			fatal(err)
		}
		fmt.Fprintln(out)
	}

	var w core.Weights
	var postureSet *requirements.Set
	switch *posture {
	case "uniform":
		w = core.Uniform(reg)
	case "realtime":
		postureSet = requirements.RealTimeEmphasis()
	case "distributed":
		postureSet = requirements.DistributedEmphasis()
	default:
		fatal(fmt.Errorf("unknown posture %q", *posture))
	}
	if postureSet != nil {
		w, err = requirements.DeriveWeights(postureSet, reg)
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(out, "Requirements (%s posture):\n%s\n", *posture, postureSet.Describe())
	}

	ranked, err := core.Rank(cards, w)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(out, "--- weighted ranking (%s posture, Figure 5) ---\n", *posture)
	if err := report.Ranking(out, ranked); err != nil {
		fatal(err)
	}

	// The paper concedes weighting "will always be somewhat subjective";
	// quantify how much that subjectivity could change the decision.
	if len(cards) > 1 {
		stab, err := core.RankStability(cards, w, 0.2, 400, rand.New(rand.NewSource(*seed)))
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(out, "\nranking stability under ±20%% weight perturbation (%d trials):\n", stab.Trials)
		for _, r := range ranked {
			fmt.Fprintf(out, "  %-14s wins %5.1f%%  mean rank %.2f\n",
				r.System, stab.WinShare[r.System]*100, stab.MeanRank[r.System])
		}
		if stab.Stable(0.9) {
			fmt.Fprintf(out, "the selection of %s is robust to weighting subjectivity.\n", stab.BaseWinner)
		} else {
			fmt.Fprintf(out, "CAUTION: %s won only %.0f%% of perturbed rankings — refine the requirements before procuring.\n",
				stab.BaseWinner, stab.WinShare[stab.BaseWinner]*100)
		}
	}

	// Telemetry export goes to stderr / files only: stdout above is
	// byte-identical whether collection was on or off.
	if o.Telemetry {
		for _, ev := range evs {
			if err := report.TelemetrySummary(os.Stderr, ev.Telemetry); err != nil {
				fatal(err)
			}
			fmt.Fprintln(os.Stderr)
		}
	}
	if err := o.Finish(); err != nil {
		fatal(err)
	}
	if err := stopProf(); err != nil {
		fatal(err)
	}
}

// shardedOpts bundles the -shards path's flag values.
type shardedOpts struct {
	seed            int64
	shards          int
	segments, hosts int
	duration        time.Duration
}

// runShardedScale drives the at-scale sharded simulation for each
// product in the field. Stdout carries only the deterministic report —
// byte-identical across -shards values and across the obs flags — while
// wall-clock throughput, per-domain attribution, and telemetry go to
// stderr. Each product writes into the one registry under "<Product>.",
// so -trace-out carries the whole field on a single timeline.
func runShardedScale(ctx context.Context, out *os.File, field []products.Spec, obsFlags *cli.ObsFlags, o shardedOpts) error {
	fmt.Fprintf(out, "Sharded at-scale evaluation: %d product(s), %d segments x %d hosts (seed %d)\n\n",
		len(field), o.segments, o.hosts, o.seed)
	if err := obsFlags.Serve(ctx); err != nil {
		return err
	}
	for _, spec := range field {
		cfg := eval.ShardedScaleConfig{
			Seed:            o.seed,
			Segments:        o.segments,
			HostsPerSegment: o.hosts,
			Shards:          o.shards,
			Duration:        o.duration,
			Obs:             obsFlags.Registry().Sub(spec.Name + "."),
		}
		res, err := eval.RunShardedScale(ctx, spec, cfg)
		if err != nil {
			return err
		}
		if err := report.ShardedScaleReport(out, res); err != nil {
			return err
		}
		fmt.Fprintln(out)
		fmt.Fprintf(os.Stderr, "%s: %d events in %.2fs wall = %.0f events/sec (%d shards)\n",
			spec.Name, res.Events, res.WallSeconds, res.EventsPerSec, o.shards)
		if err := report.ShardedScaleAttribution(os.Stderr, res); err != nil {
			return err
		}
	}
	return obsFlags.Finish()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "idseval:", err)
	os.Exit(1)
}
