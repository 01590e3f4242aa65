// Command campaign runs durable, crash-safe evaluation campaigns: a
// declared set of experiments (full product evaluations, sensitivity
// sweeps, fault-severity sweeps, trace replays) journaled to an
// append-only manifest so that a crash, Ctrl-C, or -timeout at any
// instant loses at most the in-flight experiments. Re-running resumes
// from the journal and re-executes only what is missing or failed; a
// resumed campaign's final report is byte-identical to an
// uninterrupted one with the same seed.
//
// Usage:
//
//	campaign plan   -dir DIR [-name N] [-seed N] [-quick] [-products a,b]
//	                [-evals] [-sweep-points N] [-scenarios f.json,g.json]
//	                [-fault-points N] [-traces t.idt2] [-sensitivity 0.6]
//	campaign run    -dir DIR [-workers N] [-timeout D] [-stall D]
//	                [-retries N] [-max N] [-telemetry] [-telemetry-jsonl F]
//	                [-listen ADDR] [-trace-out F]
//	campaign resume -dir DIR ...   (alias of run)
//	campaign status -dir DIR
//
// The journal is the commit point: an experiment's result file is
// written atomically before its journal line, so "journaled" always
// means "result on disk". -max N stops cleanly after N newly completed
// experiments (deterministic interruption for smoke tests); a later
// run/resume picks up the rest.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/campaign"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/report"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "plan":
		cmdPlan(os.Args[2:])
	case "run", "resume":
		cmdRun(os.Args[2:])
	case "status":
		cmdStatus(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: campaign plan|run|resume|status -dir DIR [flags]")
	os.Exit(2)
}

// csv splits a comma-separated flag, dropping empty elements.
func csv(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func cmdPlan(args []string) {
	fs := flag.NewFlagSet("campaign plan", flag.ExitOnError)
	dir := fs.String("dir", "", "campaign directory (required)")
	name := fs.String("name", "campaign", "campaign name")
	seed := fs.Int64("seed", 11, "simulation seed for every experiment")
	quick := fs.Bool("quick", false, "shrink experiments to smoke-test scale")
	productsFlag := fs.String("products", "", "comma-separated product names (empty = all)")
	evals := fs.Bool("evals", false, "include a full scorecard evaluation per product")
	sweepPoints := fs.Int("sweep-points", 0, "sensitivity sweep points per product (0 = none)")
	scenarios := fs.String("scenarios", "", "comma-separated fault scenario JSON files")
	faultPoints := fs.Int("fault-points", 5, "severity points per fault scenario")
	traces := fs.String("traces", "", "comma-separated trace files to replay")
	sensitivity := fs.Float64("sensitivity", 0.6, "sensitivity for trace replays")
	fs.Parse(args)
	if *dir == "" {
		fatal(fmt.Errorf("-dir is required"))
	}

	spec := &campaign.Spec{
		Name: *name, Seed: *seed, Quick: *quick,
		Products: csv(*productsFlag), Evals: *evals,
		SweepPoints:    *sweepPoints,
		FaultScenarios: csv(*scenarios), FaultPoints: *faultPoints,
		Traces: csv(*traces), Sensitivity: *sensitivity,
	}
	exps, err := spec.Plan()
	if err != nil {
		fatal(err)
	}
	if err := campaign.SavePlan(*dir, spec); err != nil {
		fatal(err)
	}
	fmt.Printf("planned %d experiments in %s:\n", len(exps), *dir)
	for _, ex := range exps {
		fmt.Printf("  %s\n", ex.ID)
	}
}

func cmdRun(args []string) {
	fs := flag.NewFlagSet("campaign run", flag.ExitOnError)
	dir := fs.String("dir", "", "campaign directory (required)")
	workers := fs.Int("workers", 0, "experiment-level worker pool (0 = all cores)")
	timeout := fs.Duration("timeout", 0, "abort the run after this wall-clock duration (0 = none)")
	stall := fs.Duration("stall", 2*time.Minute, "stall watchdog: cancel an experiment with no progress for this long (negative = off)")
	retries := fs.Int("retries", 1, "retries per failed experiment")
	maxNew := fs.Int("max", 0, "stop cleanly after this many newly completed experiments (0 = run to completion)")
	o := cli.AddObsFlags(fs)
	fs.Parse(args)
	if *dir == "" {
		fatal(fmt.Errorf("-dir is required"))
	}

	ctx, stop := cli.Context(*timeout)
	defer stop()
	defer o.Close()

	// The obs flags instrument the runner, its eval experiments
	// included; without them reg is nil and the run is uninstrumented.
	reg := o.Registry()
	r := &campaign.Runner{
		Dir:          *dir,
		Workers:      *workers,
		MaxAttempts:  *retries + 1,
		StallTimeout: *stall,
		MaxNew:       *maxNew,
		Obs:          reg,
		Log:          os.Stderr,
	}
	// Pre-register the outcome counters so the first /metrics scrape —
	// possibly before any experiment has committed — already exposes the
	// campaign family at zero instead of an empty page.
	for _, c := range []string{"campaign.completed", "campaign.failed", "campaign.retried", "campaign.skipped"} {
		reg.Counter(c)
	}
	o.SetProgress(func() any { return r.Progress() })
	if serr := o.Serve(ctx); serr != nil {
		fatal(serr)
	}
	out, err := r.Run(ctx)
	if ferr := o.Finish(); ferr != nil {
		fatal(ferr)
	}
	if err != nil && !cli.Interrupted(err) {
		fatal(err)
	}

	st, lerr := campaign.Load(*dir)
	if lerr != nil {
		fatal(lerr)
	}
	if st.Complete() {
		if rerr := report.CampaignReport(os.Stdout, st, core.StandardRegistry()); rerr != nil {
			fatal(rerr)
		}
		return
	}
	fmt.Printf("campaign %q: %d/%d experiments committed (%d new this run)\n",
		st.Spec.Name, st.Done(), len(st.Experiments), out.Completed)
	if err != nil && cli.Interrupted(err) {
		cli.Banner(os.Stdout, st.Done(), len(st.Experiments))
		os.Exit(1)
	}
	fmt.Println("run `campaign resume` to continue")
}

func cmdStatus(args []string) {
	fs := flag.NewFlagSet("campaign status", flag.ExitOnError)
	dir := fs.String("dir", "", "campaign directory (required)")
	full := fs.Bool("report", false, "render the full report for whatever is committed")
	fs.Parse(args)
	if *dir == "" {
		fatal(fmt.Errorf("-dir is required"))
	}
	st, err := campaign.Load(*dir)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("campaign %q (seed %d): %d/%d experiments committed\n",
		st.Spec.Name, st.Spec.Seed, st.Done(), len(st.Experiments))
	for _, ex := range st.Experiments {
		state := "pending"
		if e, ok := st.Entries[ex.ID]; ok {
			state = string(e.Status)
			if e.Status != campaign.StatusDone && e.Error != "" {
				state += ": " + e.Error
			}
		}
		fmt.Printf("  %-44s %s\n", ex.ID, state)
	}
	if *full {
		fmt.Println()
		if err := report.CampaignReport(os.Stdout, st, core.StandardRegistry()); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "campaign:", err)
	os.Exit(1)
}
