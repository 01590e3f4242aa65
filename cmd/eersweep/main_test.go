package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the sweep goldens from this run")

// TestMain runs the test binary as the eersweep command when
// EERSWEEP_TEST_MAIN is set, so a test can run the real command, with
// its flags and output, by re-executing itself.
func TestMain(m *testing.M) {
	if os.Getenv("EERSWEEP_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSweepGoldens pins the Figure-4 curves `eersweep -points 4` prints
// for TrueSecure and NetRecorder (default sizing, seed 7) to
// testdata/<product>.golden, once on one worker and once on three, so
// the golden also holds the sweep's output independent of its worker
// count. On a mismatch it names the first differing line; with -update
// the one-worker run rewrites the goldens and the three-worker run is
// checked against them.
func TestSweepGoldens(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	for _, product := range []string{"TrueSecure", "NetRecorder"} {
		for _, workers := range []int{1, 3} {
			t.Run(fmt.Sprintf("%s/workers=%d", product, workers), func(t *testing.T) {
				cmd := exec.Command(exe, "-product", product, "-points", "4", "-workers", fmt.Sprint(workers))
				cmd.Env = append(os.Environ(), "EERSWEEP_TEST_MAIN=1")
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				got, err := cmd.Output()
				if err != nil {
					t.Fatalf("eersweep -product %s -workers %d: %v\n%s", product, workers, err, stderr.Bytes())
				}
				golden := filepath.Join("testdata", product+".golden")
				if *update && workers == 1 {
					if err := os.WriteFile(golden, got, 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatalf("%v (go test -run %s -update records it)", err, t.Name())
				}
				g, w := strings.SplitAfter(string(got), "\n"), strings.SplitAfter(string(want), "\n")
				line := func(lines []string, i int) string {
					if i < len(lines) {
						return lines[i]
					}
					return "<end of output>"
				}
				for i := 0; i < len(g) || i < len(w); i++ {
					if line(g, i) != line(w, i) {
						t.Fatalf("%s: first difference at line %d:\nwant: %q\n got: %q", golden, i+1, line(w, i), line(g, i))
					}
				}
			})
		}
	}
}
