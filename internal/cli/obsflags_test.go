package cli

import (
	"context"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func parse(t *testing.T, args ...string) *ObsFlags {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	o := AddObsFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o
}

func TestObsFlagsOffByDefault(t *testing.T) {
	o := parse(t)
	if o.Collecting() {
		t.Fatal("collecting with no flags set")
	}
	if o.Registry() != nil {
		t.Fatal("registry created with collection off")
	}
	if err := o.Serve(context.Background()); err != nil {
		t.Fatal(err)
	}
	if o.server != nil {
		t.Fatal("server started with no -listen")
	}
	if err := o.Finish(nil); err != nil {
		t.Fatal(err)
	}
}

func TestObsFlagsImplyCollection(t *testing.T) {
	for _, args := range [][]string{
		{"-telemetry"},
		{"-telemetry-jsonl", "x.jsonl"},
		{"-listen", "127.0.0.1:0"},
		{"-trace-out", "x.json"},
	} {
		o := parse(t, args...)
		if !o.Collecting() {
			t.Errorf("%v: not collecting", args)
		}
		if o.Registry() == nil {
			t.Errorf("%v: nil registry", args)
		}
	}
	// Flight only arms for trace/listen; plain -telemetry skips the ring.
	if parse(t, "-telemetry").Registry().Flight() != nil {
		t.Error("-telemetry alone enabled the flight recorder")
	}
	if parse(t, "-trace-out", "x").Registry().Flight() == nil {
		t.Error("-trace-out did not enable the flight recorder")
	}
	if parse(t, "-listen", "x").Registry().Flight() == nil {
		t.Error("-listen did not enable the flight recorder")
	}
}

func TestObsFlagsServeLifecycle(t *testing.T) {
	o := parse(t, "-listen", "127.0.0.1:0")
	o.Registry().Counter("campaign.completed").Add(2)
	o.SetProgress(func() any { return map[string]int{"completed": 2} })

	ctx, cancel := context.WithCancel(context.Background())
	if err := o.serve(ctx, io.Discard); err != nil {
		t.Fatal(err)
	}
	if o.server == nil {
		t.Fatal("not serving")
	}
	addr := o.server.Addr()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "campaign_completed 2") {
		t.Fatalf("/metrics missing counter:\n%s", body)
	}
	resp, err = http.Get("http://" + addr + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"completed": 2`) {
		t.Fatalf("/progress = %s", body)
	}

	// Context cancellation (the signal path) tears the server down.
	cancel()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := http.Get("http://" + addr + "/healthz"); err != nil {
			return // down, as required
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("server still up after context cancel")
}

func TestObsFlagsFinishWritesFiles(t *testing.T) {
	dir := t.TempDir()
	jsonl := filepath.Join(dir, "t.jsonl")
	trace := filepath.Join(dir, "t.trace.json")
	o := parse(t, "-telemetry-jsonl", jsonl, "-trace-out", trace)
	reg := o.Registry()
	reg.Counter("x.count").Inc()
	reg.Flight().Record(obs.FlightMark, -1, -1, 0, "phase")
	if err := o.Finish(nil); err != nil {
		t.Fatal(err)
	}
	jb, err := os.ReadFile(jsonl)
	if err != nil || !strings.Contains(string(jb), `"x.count"`) {
		t.Fatalf("jsonl = %q, %v", jb, err)
	}
	tb, err := os.ReadFile(trace)
	if err != nil || !strings.Contains(string(tb), `"traceEvents"`) {
		t.Fatalf("trace = %q, %v", tb, err)
	}
}

func TestObsFlagsSnapshotOverride(t *testing.T) {
	o := parse(t, "-telemetry")
	ext := obs.NewRegistry()
	ext.Counter("merged.count").Add(9)
	o.SetSnapshot(func() *obs.Snapshot { return ext.Snapshot() })
	if v, ok := o.Snapshot().Counter("merged.count"); !ok || v != 9 {
		t.Fatalf("snapshot override ignored: %d %v", v, ok)
	}
}
