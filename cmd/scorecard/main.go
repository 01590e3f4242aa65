// Command scorecard works with the methodology's data artifacts without
// running experiments: it derives metric weights from a user requirements
// file (Section 3.3, Figure 6), evaluates stored scorecard JSON files
// under those weights (Figure 5), and prints the Figure-6 worked example.
//
// Usage:
//
//	scorecard -requirements reqs.json card1.json card2.json ...
//	scorecard -posture realtime card1.json ...
//	scorecard -example            # print the Figure-6 worked example
//	scorecard -emit-posture realtime   # write a posture as requirements JSON
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/requirements"
)

func main() {
	reqFile := flag.String("requirements", "", "requirements JSON file to derive weights from")
	posture := flag.String("posture", "", "built-in posture instead of a file: realtime or distributed")
	example := flag.Bool("example", false, "print the Figure-6 worked example and exit")
	emitPosture := flag.String("emit-posture", "", "write the named posture as requirements JSON to stdout")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	o := cli.AddObsFlags(flag.CommandLine)
	flag.Parse()
	defer o.Close()

	stopProf, err := obs.StartProfiles(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := stopProf(); err != nil {
			fatal(err)
		}
	}()

	reg := core.StandardRegistry()

	if *emitPosture != "" {
		s, err := postureSet(*emitPosture)
		if err != nil {
			fatal(err)
		}
		if err := s.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}

	if *example {
		s, w, err := requirements.Figure6Example(reg)
		if err != nil {
			fatal(err)
		}
		fmt.Println("Figure 6 — requirement to metric weighting example")
		fmt.Println("\nRequirements (least to most important):")
		fmt.Print(s.Describe())
		fmt.Println("\nDerived metric weights (nonzero):")
		for _, id := range requirements.SortedNonZero(w) {
			m, _ := reg.Get(id)
			fmt.Printf("  %-35s %g\n", m.Name, w[id])
		}
		return
	}

	var set *requirements.Set
	switch {
	case *reqFile != "":
		f, err := os.Open(*reqFile)
		if err != nil {
			fatal(err)
		}
		set, err = requirements.ReadJSON(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	case *posture != "":
		set, err = postureSet(*posture)
		if err != nil {
			fatal(err)
		}
	default:
		fatal(fmt.Errorf("one of -requirements, -posture, -example, -emit-posture is required"))
	}

	w, err := requirements.DeriveWeights(set, reg)
	if err != nil {
		fatal(err)
	}
	// Derived weights land in the telemetry registry so a JSONL or
	// Prometheus export carries the weighting evidence beside the
	// ranking; stdout stays byte-identical either way.
	if oreg := o.Registry(); oreg != nil {
		for _, id := range requirements.SortedNonZero(w) {
			oreg.Gauge("scorecard.weight." + id + "_ppm").Set(int64(w[id] * 1e6))
		}
	}
	fmt.Println("Requirements:")
	fmt.Print(set.Describe())
	fmt.Println("\nDerived weights (nonzero):")
	for _, id := range requirements.SortedNonZero(w) {
		m, _ := reg.Get(id)
		fmt.Printf("  %-35s %g\n", m.Name, w[id])
	}

	if flag.NArg() == 0 {
		if err := o.Finish(); err != nil {
			fatal(err)
		}
		return
	}
	var cards []*core.Scorecard
	for _, path := range flag.Args() {
		f, err := os.Open(path)
		if err != nil {
			fatal(err)
		}
		card, err := core.ReadScorecardJSON(f, reg)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", path, err))
		}
		cards = append(cards, card)
	}
	ranked, err := core.Rank(cards, w)
	if err != nil {
		fatal(err)
	}
	fmt.Println("\nWeighted ranking (Figure 5):")
	if err := report.Ranking(os.Stdout, ranked); err != nil {
		fatal(err)
	}
	if oreg := o.Registry(); oreg != nil {
		for i, ws := range ranked {
			oreg.Gauge("scorecard.ranking." + ws.System + ".position").Set(int64(i + 1))
			oreg.Gauge("scorecard.ranking." + ws.System + ".total_ppm").Set(int64(ws.Total * 1e6))
		}
		if err := o.Finish(); err != nil {
			fatal(err)
		}
	}
}

func postureSet(name string) (*requirements.Set, error) {
	switch name {
	case "realtime":
		return requirements.RealTimeEmphasis(), nil
	case "distributed":
		return requirements.DistributedEmphasis(), nil
	default:
		return nil, fmt.Errorf("unknown posture %q (want realtime or distributed)", name)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "scorecard:", err)
	os.Exit(1)
}
