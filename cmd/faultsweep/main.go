// Command faultsweep runs a declarative fault scenario against a product
// at increasing severity and prints the degradation curve — the measured
// evidence behind the survivability and graceful-degradation scores.
//
// Usage:
//
//	faultsweep -scenario examples/faults/span-degrade.json
//	           [-product NAME] [-points N] [-seed N] [-quick] [-workers N]
//	           [-csv] [-o FILE] [-telemetry] [-telemetry-jsonl F]
//	           [-listen ADDR] [-trace-out F] [-timeout 5m]
//
// Output on stdout is fully deterministic for a given seed, scenario,
// and point count: identical invocations produce byte-identical output
// (TestFaultGoldens and the Makefile's faultscenarios target pin the
// shipped examples to golden files). Telemetry export goes to stderr
// only and never perturbs stdout. -o writes the report or CSV to a file
// atomically (temp + rename), so a crash never leaves a torn file.
// Ctrl-C (or -timeout expiry) drains in-flight points at a clean event
// boundary and prints the completed points with an INTERRUPTED banner.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/eval"
	"repro/internal/faults"
	"repro/internal/fsio"
	"repro/internal/products"
	"repro/internal/report"
)

func main() {
	scenarioPath := flag.String("scenario", "", "fault scenario JSON file (required)")
	product := flag.String("product", "TrueSecure", "product to evaluate")
	points := flag.Int("points", 5, "severity steps across [0,1]")
	seed := flag.Int64("seed", 7, "simulation seed")
	quick := flag.Bool("quick", false, "shrink run durations (smoke-test scale)")
	workers := flag.Int("workers", 0, "worker-pool bound (0 = all cores, 1 = serial)")
	csv := flag.Bool("csv", false, "emit the curve as CSV instead of the report")
	outFile := flag.String("o", "", "write the report/CSV to this file (atomic) instead of stdout")
	timeout := flag.Duration("timeout", 0, "abort the sweep after this wall-clock duration (0 = none)")
	kinds := flag.Bool("kinds", false, "list fault kinds and exit")
	o := cli.AddObsFlags(flag.CommandLine)
	flag.Parse()

	ctx, stop := cli.Context(*timeout)
	defer stop()
	defer o.Close()
	if err := o.Serve(ctx); err != nil {
		fatal(err)
	}

	if *kinds {
		for _, k := range faults.Kinds() {
			fmt.Println(k)
		}
		return
	}
	if *scenarioPath == "" {
		fatal(fmt.Errorf("-scenario is required (see examples/faults/)"))
	}
	sc, err := faults.Load(*scenarioPath)
	if err != nil {
		fatal(err)
	}
	spec, ok := products.Find(*product)
	if !ok {
		fatal(fmt.Errorf("unknown product %q", *product))
	}

	opts := eval.FaultSweepOptions{
		Seed:    *seed,
		Points:  *points,
		Workers: *workers,
		Obs:     o.Registry(),
	}
	if *quick {
		opts.TrainFor = 8 * time.Second
		opts.AttackFor = 20 * time.Second
		opts.Pps = 300
	}
	sw, err := eval.FaultSweep(ctx, spec, sc, opts)
	if err != nil {
		if !cli.Interrupted(err) || sw == nil {
			fatal(err)
		}
		// Keep only the points that finished before cancellation; their
		// rows carry their own severity labels, so the prefix is honest.
		done := &eval.FaultSweepResult{Product: sw.Product, Scenario: sw.Scenario}
		for _, p := range sw.Points {
			if p != nil {
				done.Points = append(done.Points, p)
			}
		}
		if perr := emit(done, *csv, ""); perr != nil {
			fatal(perr)
		}
		cli.Banner(os.Stdout, len(done.Points), *points)
		os.Exit(1)
	}

	if err := emit(sw, *csv, *outFile); err != nil {
		fatal(err)
	}

	if reg := o.Registry(); reg != nil {
		sw.Publish(reg)
		if err := o.Finish(nil); err != nil {
			fatal(err)
		}
	}
}

// emit renders the curve as CSV or the human report, to stdout or — when
// path is non-empty — atomically to a file.
func emit(sw *eval.FaultSweepResult, csv bool, path string) error {
	render := report.FaultSweepReport
	if csv {
		render = report.FaultSweepCSV
	}
	if path == "" {
		return render(os.Stdout, sw)
	}
	return fsio.WriteAtomic(path, func(w io.Writer) error {
		return render(w, sw)
	})
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "faultsweep:", err)
	os.Exit(1)
}
