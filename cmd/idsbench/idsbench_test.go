package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for idsbench: workloads
// re-execute os.Executable with -child, which here is this binary.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-child" {
		os.Exit(runChild(os.Args[2], os.Stdin, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// tinyPlan sizes a workload down to a smoke test: one op per phase, one
// product, a 2x4-host scale run, and one stream of a 2 s trace.
func tinyPlan(t *testing.T, workload, golden string, traced bool) plan {
	t.Helper()
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	p := defaultPlan(workload)
	p.Root, p.TraceDir, p.Golden, p.Traced = root, t.TempDir(), golden, traced
	p.Seconds, p.SetupReps, p.MaxOps, p.Products = 0.5, 1, 1, 1
	p.Scale = scaleSize{Segments: 2, Hosts: 4, Duration: 300 * time.Millisecond}
	p.Serve = serveSize{PoolTraces: 1, TraceSeconds: 2, Conns: 1}
	return p
}

// writeGolden records the digests the tiny warm-up ops render, computed
// in-process, as a golden file.
func writeGolden(t *testing.T) string {
	t.Helper()
	golden := map[string]string{}
	for _, wl := range []string{"quick", "scale"} {
		w := newEvalWork(tinyPlan(t, wl, "", false))
		out, err := w.op(context.Background(), goldenSeed, nil, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(out.report)
		golden[w.goldenKey()] = hex.EncodeToString(sum[:])
	}
	path := filepath.Join(t.TempDir(), "golden.json")
	b, err := json.Marshal(golden)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func runTiny(t *testing.T, p plan) Result {
	t.Helper()
	var log bytes.Buffer
	res, err := runWorkload(p, &log)
	if err != nil {
		t.Fatalf("%s: %v\n%s", p.Workload, err, log.String())
	}
	if !res.Correct {
		t.Logf("%s log:\n%s", p.Workload, log.String())
	}
	return res
}

// TestEveryMetricEmitted runs each workload at minimum size, untraced
// and traced, and holds the output to BENCHMARK.json: every end-to-end
// metric untraced and every per-layer metric traced, each with its
// unit, and no metric the file does not declare. full is left out: it
// is quick's code path at larger experiment sizes, and would triple the
// test's time.
func TestEveryMetricEmitted(t *testing.T) {
	root, err := repoRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, idsbench runs %d", len(spec.Workloads), len(workloads))
	}
	golden := writeGolden(t)
	for _, wl := range spec.Workloads {
		if wl.Name == "full" {
			continue
		}
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			res := runTiny(t, tinyPlan(t, wl.Name, golden, traced))
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", wl.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, BENCHMARK.json declares %d", wl.Name, traced, len(res.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v (present %v), want unit %s", wl.Name, traced, d.Name, m, ok, d.Unit)
				}
			}
		}
	}
}

// TestFlippedGoldenByteFails changes one character of the recorded
// digest and expects the run to be marked incorrect.
func TestFlippedGoldenByteFails(t *testing.T) {
	golden := writeGolden(t)
	b, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	var g map[string]string
	if err := json.Unmarshal(b, &g); err != nil {
		t.Fatal(err)
	}
	for k, v := range g {
		flip := byte('0')
		if v[0] == '0' {
			flip = '1'
		}
		g[k] = string(flip) + v[1:]
	}
	if b, err = json.Marshal(g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(golden, b, 0o644); err != nil {
		t.Fatal(err)
	}
	res := runTiny(t, tinyPlan(t, "quick", golden, false))
	if res.Correct || res.Failed == 0 {
		t.Fatalf("run with a flipped golden digest: correct=%v failed=%d, want a failure", res.Correct, res.Failed)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.5, 1}} {
		if got, ok := percentile(xs, c.p); !ok || got != c.want {
			t.Errorf("p%v = %v, %v; want %v", c.p, got, ok, c.want)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("percentile of no samples reported ok")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := tail(xs, 90); !ok || v != 90 {
		t.Errorf("p90 of 100 samples = %v, %v; want 90 (10 beyond)", v, ok)
	}
	if _, ok := tail(xs[:99], 90); ok {
		t.Error("p90 of 99 samples reported; only 9 lie beyond it")
	}
	if _, ok := tail(xs, 99); ok {
		t.Error("p99 of 100 samples reported; only 1 lies beyond it")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs,
// n=4), the spread definition BENCHMARK.json bounds are checked with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{10, 20}, 7.5, 22.5},
		{[]float64{7}, 7, 7},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	a := []float64{1.00, 1.01, 0.99, 1.00, 1.02}
	for _, c := range []struct {
		b            []float64
		higherBetter bool
		want         string
	}{
		{[]float64{1.02, 1.03, 1.01, 1.02, 1.04}, false, "within bound"},
		{[]float64{1.20, 1.21, 1.19, 1.20, 1.22}, false, "worse"},
		{[]float64{1.20, 1.21, 1.19, 1.20, 1.22}, true, "within bound"},
		{[]float64{0.5, 1.0, 1.5, 2.0, 2.5}, false, "unresolved"},
		{[]float64{0.5, 0.6, 0.7, 0.8, 0.9}, false, "within bound"}, // wide, but every run better
	} {
		if got := verdict(a, c.b, 0.1, c.higherBetter); got != c.want {
			t.Errorf("verdict(%v, higherBetter=%v) = %q, want %q", c.b, c.higherBetter, got, c.want)
		}
	}
}

func TestParsePprofTop(t *testing.T) {
	text := []byte(`File: idsevald
Type: cpu
Showing nodes accounting for 1s, 100% of 1s total
      flat  flat%   sum%        cum   cum%
     0.40s 40.00% 40.00%      0.50s 50.00%  repro/internal/detect.(*Matcher).ScanBatch
     0.20s 20.00% 60.00%      0.20s 20.00%  runtime.memmove
     0.10s 10.00% 70.00%      0.10s 10.00%  gcWriteBarrier
     0.10s 10.00% 80.00%      0.30s 30.00%  repro/internal/obs/httpexport.(*Handler).handleMetrics
     0.10s 10.00% 90.00%      0.10s 10.00%  math/rand.(*Rand).Int63 (inline)
     0.10s 10.00%   100%      0.15s 15.00%  runtime.gcBgMarkWorker
`)
	got, err := parsePprofTop(text)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]float64{
		"detect.cpu_share": 0.4, "obs.cpu_share": 0.1, "runtime.cpu_share": 0.4,
		"other.cpu_share": 0.1, "runtime.gc_cpu_frac": 0.15, "simtime.cpu_share": 0,
	} {
		if v := got[name]; v < want-1e-9 || v > want+1e-9 {
			t.Errorf("%s = %v, want %v", name, v, want)
		}
	}
}
