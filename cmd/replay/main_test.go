package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/netsim"
	"repro/internal/packet"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/traffic"
)

var update = flag.Bool("update", false, "rewrite the replay goldens from this run")

// TestMain runs the test binary as the replay command when
// REPLAY_TEST_MAIN is set, so a test can run the real command, with its
// flags and output, by re-executing itself.
func TestMain(m *testing.M) {
	if os.Getenv("REPLAY_TEST_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// writeTrace writes the trace `trafficgen -seconds 30 -o path` writes:
// EcommerceEdge background at 600 pps among six cluster and three
// external hosts, with the standard attack campaign, at seed 21.
func writeTrace(t *testing.T, path string) {
	t.Helper()
	const seed = 21
	dur := 30 * time.Second
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	profile := traffic.EcommerceEdge()
	sw, err := trace.NewWriter(f, profile.Name, seed)
	if err != nil {
		t.Fatal(err)
	}
	sim := simtime.New(seed)
	rec := trace.NewStreamRecorder(sim, sw)
	seq := &packet.SeqCounter{}
	var eps traffic.Endpoints
	for i := 0; i < 3; i++ {
		eps.External = append(eps.External, netsim.ExternalAddr(i))
	}
	for i := 0; i < 6; i++ {
		eps.Cluster = append(eps.Cluster, netsim.ClusterAddr(i))
	}
	gen, err := traffic.NewGenerator(sim, profile, eps, seq, rec.Emit)
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.Start(gen.SessionRateForPps(600)); err != nil {
		t.Fatal(err)
	}
	camp := attack.NewCampaign(&attack.Context{Sim: sim, Rng: sim.Stream("attack"), Seq: seq, Emit: rec.Emit, Eps: eps, Gen: gen})
	if err := camp.SpreadAcross(dur/10, dur*8/10, attack.StandardScenarios(1)); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(dur)
	gen.Stop()
	sim.Run()
	if err := rec.Err(); err != nil {
		t.Fatal(err)
	}
	sw.SetIncidents(camp.Incidents())
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayGoldens pins replay's stdout for TrueSecure and NetRecorder
// over a trafficgen trace to testdata/<product>.golden. The trace is
// named relative to the command's working directory, because stdout
// prints the path. On a mismatch it names the first differing line;
// with -update it rewrites the goldens instead.
func TestReplayGoldens(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	writeTrace(t, filepath.Join(dir, "trace.idt2"))
	for _, product := range []string{"TrueSecure", "NetRecorder"} {
		t.Run(product, func(t *testing.T) {
			cmd := exec.Command(exe, "-trace", "trace.idt2", "-product", product)
			cmd.Dir = dir
			cmd.Env = append(os.Environ(), "REPLAY_TEST_MAIN=1")
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("replay -product %s: %v\n%s", product, err, stderr.Bytes())
			}
			golden := filepath.Join("testdata", product+".golden")
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
		})
	}
}
