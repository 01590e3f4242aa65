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

var update = flag.Bool("update", false, "rewrite the stdout golden from this run")

// TestMain runs the test binary as the example when
// CLUSTER_MONITORING_TEST_MAIN is set, so a test can run the real
// program, with its output, by re-executing itself.
func TestMain(m *testing.M) {
	if os.Getenv("CLUSTER_MONITORING_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestStdoutGolden pins the example's stdout (seed 3: the incidents, the
// compromise scope and the cost of C2 auditing) to
// testdata/stdout.golden. On a mismatch it names the first differing
// line; with -update it rewrites the golden.
func TestStdoutGolden(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), "CLUSTER_MONITORING_TEST_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("cluster-monitoring: %v\n%s", err, stderr.Bytes())
	}
	golden := filepath.Join("testdata", "stdout.golden")
	if *update {
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
}
