package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the fault goldens from this run")

// TestMain runs the test binary as the faultsweep command when
// FAULTSWEEP_TEST_MAIN is set, so a test can run the real command, with
// its flags and output, by re-executing itself.
func TestMain(m *testing.M) {
	if os.Getenv("FAULTSWEEP_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFaultGoldens pins each shipped fault scenario to its golden
// degradation curve under examples/faults/golden: the report
// `faultsweep -quick -points 3 -seed 11` prints for TrueSecure. On a
// mismatch it names the first differing line; with -update it rewrites
// the goldens instead.
func TestFaultGoldens(t *testing.T) {
	paths, err := filepath.Glob("../../examples/faults/*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no fault scenarios found (%v)", err)
	}
	for _, path := range paths {
		name := strings.TrimSuffix(filepath.Base(path), ".json")
		t.Run(name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], "-scenario", path, "-quick", "-points", "3", "-seed", "11")
			cmd.Env = append(os.Environ(), "FAULTSWEEP_TEST_MAIN=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("faultsweep -scenario %s: %v\n%s", path, err, stderr.Bytes())
			}
			golden := filepath.Join("../../examples/faults/golden", name+".txt")
			if *update {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
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
