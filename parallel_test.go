// Determinism contract of the parallel evaluation pipeline: fanning an
// evaluation out across a worker pool must not change a single byte of
// its output. Every experiment owns its own simulation and derives its
// RNG streams from the seed alone, so scheduling order between workers
// carries no information — these tests pin that property.
package repro_test

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/eval"
	"repro/internal/products"
	"repro/internal/report"
	"repro/internal/requirements"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this run")

// quickGolden holds every product's seed-11 quick scorecard report. It is
// recorded on linux/amd64; if another GOARCH renders differently (FMA
// fusion, say), that GOARCH gets a golden of its own rather than a skip.
const quickGolden = "testdata/quick_scorecards.golden"

// fullGolden holds the seed-11 full-size evaluation of the field as
// idseval prints it: every scorecard report, the three score matrices,
// and the weighted ranking under the realtime and the distributed
// postures.
const fullGolden = "testdata/full_scorecards.golden"

// checkGolden compares got with the golden file at path and names the
// first differing line; with -update it rewrites the file instead.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (go test -run %s -update records it)", err, t.Name())
	}
	if bytes.Equal(got, want) {
		return
	}
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	line := func(lines []string, i int) string {
		if i < len(lines) {
			return lines[i]
		}
		return "<end of output>"
	}
	i := 0
	for i < len(g) && i < len(w) && g[i] == w[i] {
		i++
	}
	t.Fatalf("%s: first difference at line %d:\nwant: %s\n got: %s", path, i+1, line(w, i), line(g, i))
}

// renderEvaluations runs the full product field at the given worker
// count and renders every scorecard report into one byte stream.
func renderEvaluations(t *testing.T, workers int) []byte {
	t.Helper()
	reg := core.StandardRegistry()
	evs, err := eval.EvaluateAll(context.Background(), products.All(), reg, eval.Options{Seed: 11, Quick: true, Workers: workers})
	if err != nil {
		t.Fatalf("EvaluateAll(context.Background(), workers=%d): %v", workers, err)
	}
	var buf bytes.Buffer
	for _, ev := range evs {
		if err := report.EvaluationReport(&buf, ev); err != nil {
			t.Fatalf("render: %v", err)
		}
	}
	return buf.Bytes()
}

// TestParallelEvaluationMatchesSerial is the tentpole acceptance test:
// serial (workers=1), machine-sized (workers=0), and oversubscribed
// (workers=8) runs of the full product matrix produce byte-identical
// rendered reports for the same seed, and the serial run matches the
// committed golden.
func TestParallelEvaluationMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full product matrix ×3 is too slow for -short")
	}
	serial := renderEvaluations(t, 1)
	checkGolden(t, quickGolden, serial)
	for _, workers := range []int{0, 8} {
		got := renderEvaluations(t, workers)
		if !bytes.Equal(serial, got) {
			t.Fatalf("workers=%d output differs from serial run (%d vs %d bytes)", workers, len(got), len(serial))
		}
	}
}

// TestFullScorecards pins the paper-size evaluation: one full seed-11
// run of the field, rendered with both postures' rankings, against
// fullGolden.
func TestFullScorecards(t *testing.T) {
	if testing.Short() {
		t.Skip("the full-size product matrix is too slow for -short")
	}
	reg := core.StandardRegistry()
	evs, err := eval.EvaluateAll(context.Background(), products.All(), reg, eval.Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	cards := make([]*core.Scorecard, len(evs))
	for i, ev := range evs {
		if err := report.EvaluationReport(&buf, ev); err != nil {
			t.Fatal(err)
		}
		cards[i] = ev.Card
	}
	for _, c := range core.Classes {
		fmt.Fprintf(&buf, "--- %s score matrix ---\n", c)
		if err := report.ScoreMatrix(&buf, reg, c, cards, true); err != nil {
			t.Fatal(err)
		}
		buf.WriteString("\n")
	}
	for _, p := range []struct {
		name string
		set  *requirements.Set
	}{{"realtime", requirements.RealTimeEmphasis()}, {"distributed", requirements.DistributedEmphasis()}} {
		w, err := requirements.DeriveWeights(p.set, reg)
		if err != nil {
			t.Fatal(err)
		}
		ranked, err := core.Rank(cards, w)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "Requirements (%s posture):\n%s\n", p.name, p.set.Describe())
		fmt.Fprintf(&buf, "--- weighted ranking (%s posture, Figure 5) ---\n", p.name)
		if err := report.Ranking(&buf, ranked); err != nil {
			t.Fatal(err)
		}
	}
	checkGolden(t, fullGolden, buf.Bytes())
}

// TestParallelSweepMatchesSerial pins the same property for the
// sensitivity sweep, whose points fan out across the pool.
func TestParallelSweepMatchesSerial(t *testing.T) {
	run := func(workers int) *eval.SweepResult {
		res, err := eval.SensitivitySweep(context.Background(), products.StreamHunter(), eval.SweepOptions{
			Seed: 23, Points: 5, Workers: workers,
			TrainFor: 5 * time.Second, RunFor: 8 * time.Second, Pps: 200,
		})
		if err != nil {
			t.Fatalf("SensitivitySweep(context.Background(), workers=%d): %v", workers, err)
		}
		return res
	}
	serial := run(1)
	parallel := run(4)
	if serial.EER != parallel.EER || serial.EERError != parallel.EERError || serial.EERValid != parallel.EERValid {
		t.Fatalf("EER differs: serial %+v parallel %+v", serial, parallel)
	}
	if len(serial.Points) != len(parallel.Points) {
		t.Fatalf("point counts differ: %d vs %d", len(serial.Points), len(parallel.Points))
	}
	for i, sp := range serial.Points {
		pp := parallel.Points[i]
		if sp.Sensitivity != pp.Sensitivity || sp.TypeI != pp.TypeI || sp.TypeII != pp.TypeII {
			t.Fatalf("sweep point %d differs: serial %+v parallel %+v", i, sp, pp)
		}
	}
}

// TestEvaluationSharesCompiledCorpus verifies the evaluation-scale
// consequence of the matcher cache: running the whole product field
// compiles each distinct signature corpus at most once, no matter how
// many engines the testbeds instantiate.
func TestEvaluationSharesCompiledCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("full product matrix is too slow for -short")
	}
	builds0, _ := detect.MatcherCacheStats()
	renderEvaluations(t, 0)
	buildsAfterFirst, _ := detect.MatcherCacheStats()
	renderEvaluations(t, 0)
	buildsAfterSecond, hits := detect.MatcherCacheStats()

	firstRun := buildsAfterFirst - builds0
	secondRun := buildsAfterSecond - buildsAfterFirst
	if secondRun != 0 {
		t.Fatalf("second identical evaluation compiled %d new automata, want 0 (first run: %d, total hits %d)",
			secondRun, firstRun, hits)
	}
}
