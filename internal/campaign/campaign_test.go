package campaign_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/attack"
	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/fsio/faultfs"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/products"
	"repro/internal/report"
	"repro/internal/simtime"
	"repro/internal/trace"
	"repro/internal/traffic"
)

// twoProducts returns two real product names for synthetic plans.
func twoProducts(t *testing.T) (string, string) {
	t.Helper()
	all := products.All()
	if len(all) < 2 {
		t.Fatal("need at least two products")
	}
	return all[0].Name, all[1].Name
}

// syntheticSpec is a sweep-only campaign over two products.
func syntheticSpec(t *testing.T, points int) *campaign.Spec {
	a, b := twoProducts(t)
	return &campaign.Spec{Name: "synthetic", Seed: 7, Products: []string{a, b}, SweepPoints: points}
}

// syntheticExec produces a deterministic result for any experiment
// without running a simulation.
func syntheticExec(ctx context.Context, ex campaign.Experiment) (*campaign.Result, error) {
	return &campaign.Result{
		ID: ex.ID, Kind: ex.Kind, Product: ex.Product,
		Point: &campaign.PointResult{
			Index: ex.Index, Points: ex.Points,
			Sensitivity: float64(ex.Index) / float64(ex.Points-1),
			TypeI:       float64(ex.Index),
			TypeII:      float64(ex.Points - ex.Index),
		},
	}, nil
}

func newRunner(dir string, spec *campaign.Spec) *campaign.Runner {
	return &campaign.Runner{
		Dir: dir, Spec: spec, Workers: 2,
		Backoff: time.Millisecond, StallTimeout: -1, Grace: time.Second,
	}
}

// crashAfterAppends returns a hostile disk that crash-stops at the
// journal's (n+1)th write: the first n appends are durable, and nothing
// the run writes after them reaches the disk — a hard kill between two
// commits.
func crashAfterAppends(n int) *faultfs.FS {
	return faultfs.New(faultfs.Rule{Op: faultfs.OpWrite, Path: "journal.jsonl", N: n + 1, Crash: true})
}

// runToCrash runs r over ffs and fails the test unless the disk crashed
// and the run reported it.
func runToCrash(t *testing.T, r *campaign.Runner, ffs *faultfs.FS) {
	t.Helper()
	r.FS = ffs
	if _, err := r.Run(context.Background()); err == nil || !ffs.Crashed() {
		t.Fatalf("crash run: error %v, disk crashed %v; want the crash to stop the run", err, ffs.Crashed())
	}
}

func renderReport(t *testing.T, dir string) string {
	t.Helper()
	st, err := campaign.Load(dir)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := report.CampaignReport(&buf, st, core.StandardRegistry()); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestPlanIDsAreDeterministic(t *testing.T) {
	a, b := twoProducts(t)
	spec := &campaign.Spec{
		Name: "p", Seed: 3, Products: []string{a, b}, Evals: true, SweepPoints: 3,
		FaultScenarios: []string{"examples/faults/span-degrade.json"}, FaultPoints: 2,
		Traces: []string{"t1.idtr"},
	}
	first, err := spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	second, err := spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(second) {
		t.Fatalf("plan sizes differ: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("plan diverges at %d: %+v vs %+v", i, first[i], second[i])
		}
	}
	wantIDs := []string{
		"eval/" + a,
		"sweep/" + a + "/p01of03",
		"fault/span-degrade/" + a + "/s01of02",
		"trace/t1/" + a,
	}
	got := map[string]bool{}
	for _, ex := range first {
		got[ex.ID] = true
	}
	for _, id := range wantIDs {
		if !got[id] {
			t.Fatalf("plan missing expected id %q (have %v)", id, first)
		}
	}
}

func TestPlanRejectsSensitivityOutsideUnitRange(t *testing.T) {
	// A trace replay's sensitivity is a detection threshold in [0, 1];
	// anything else fails at planning, not in every trace experiment.
	a, _ := twoProducts(t)
	for _, sens := range []float64{1.5, -0.5, math.NaN()} {
		spec := &campaign.Spec{Name: "s", Products: []string{a}, Traces: []string{"t.idt2"}, Sensitivity: sens}
		if _, err := spec.Plan(); err == nil || !strings.Contains(err.Error(), "outside [0, 1]") {
			t.Fatalf("sensitivity %v: plan error %v, want it refused", sens, err)
		}
	}
	for _, sens := range []float64{0, 0.25, 1} {
		spec := &campaign.Spec{Name: "s", Products: []string{a}, Traces: []string{"t.idt2"}, Sensitivity: sens}
		if _, err := spec.Plan(); err != nil {
			t.Fatalf("sensitivity %v: %v", sens, err)
		}
	}
}

// writeTrace writes a small labeled IDT2 trace to path: 12 s of
// EcommerceEdge background at 40 sessions/s with an exploit and a brute
// force, at seed 5.
func writeTrace(t *testing.T, path string) {
	t.Helper()
	sim := simtime.New(5)
	rec := trace.NewRecorder(sim, "ecommerce-edge")
	seq := &packet.SeqCounter{}
	eps := traffic.Endpoints{
		External: []packet.Addr{packet.IPv4(203, 0, 1, 1), packet.IPv4(203, 0, 1, 2)},
		Cluster:  []packet.Addr{packet.IPv4(10, 1, 1, 1), packet.IPv4(10, 1, 1, 2), packet.IPv4(10, 1, 1, 3)},
	}
	gen, err := traffic.NewGenerator(sim, traffic.EcommerceEdge(), eps, seq, rec.Emit)
	if err != nil {
		t.Fatal(err)
	}
	if err := gen.Start(40); err != nil {
		t.Fatal(err)
	}
	camp := attack.NewCampaign(&attack.Context{Sim: sim, Rng: sim.Stream("attack"), Seq: seq, Eps: eps, Emit: rec.Emit, Gen: gen})
	if err := camp.SpreadAcross(2*time.Second, 8*time.Second, []attack.Scenario{
		attack.Exploit{Count: 3}, attack.BruteForce{Attempts: 20},
	}); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(12 * time.Second)
	gen.Stop()
	sim.Run()
	rec.SetIncidents(camp.Incidents())
	var buf bytes.Buffer
	if err := rec.Trace().WriteStream(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTraceAtSensitivityZero pins 0 as a sensitivity like any other: a
// plan saved with 0 reloads with 0, and its trace experiment's result
// is the replay at 0.
func TestTraceAtSensitivityZero(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "zero.idt2")
	writeTrace(t, path)
	cdir := filepath.Join(dir, "campaign")
	if err := campaign.SavePlan(cdir, &campaign.Spec{
		Name: "zero", Seed: 7, Quick: true, Products: []string{"TrueSecure"}, Traces: []string{path},
	}); err != nil {
		t.Fatal(err)
	}
	spec, err := campaign.LoadPlan(cdir)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Sensitivity != 0 {
		t.Fatalf("plan saved at sensitivity 0 reloads at %v", spec.Sensitivity)
	}
	if _, err := newRunner(cdir, spec).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, err := campaign.LoadResult(cdir, "trace/zero/TrueSecure")
	if err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rd, err := trace.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	accs, err := eval.RunTraceAccuracyStream(context.Background(), []products.Spec{products.TrueSecure()}, rd, 0, 6*time.Second, 7, nil)
	if err != nil {
		t.Fatal(err)
	}
	acc := accs[0]
	want := campaign.TraceResult{
		Trace: "zero", ActualIncidents: acc.ActualIncidents, Detected: acc.DetectedIncidents,
		FalseAlarms: acc.FalseAlarms, DetectionRate: acc.DetectionRate,
		FalsePosRatio: acc.FalsePositiveRatio, MeanDelayNs: int64(acc.MeanDetectionDelay),
	}
	if got.Trace == nil || *got.Trace != want {
		t.Fatalf("trace experiment at sensitivity 0: %+v, want the replay at 0: %+v", got.Trace, want)
	}
}

// TestTraceGroupingNeverChangesAByte runs one trace for three products
// four ways: at Workers 1, where one testbed replays it for all three;
// at Workers 2, which deals the products to two testbeds; stopped by
// MaxNew 1 after its first commit and resumed; and as one campaign per
// product. Every way must write byte-identical result files, and the
// three campaigns of the one plan must report byte-identically. The
// taps count the networks each way simulates, and the commit hook the
// order in which a testbed's replays commit.
func TestTraceGroupingNeverChangesAByte(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.idt2")
	writeTrace(t, path)
	field := []string{"NetRecorder", "TrueSecure", "StreamHunter"}
	want := []string{"trace/t/NetRecorder", "trace/t/TrueSecure", "trace/t/StreamHunter"}
	plan := func(products ...string) *campaign.Spec {
		return &campaign.Spec{Name: "grouped", Seed: 7, Quick: true, Products: products,
			Traces: []string{path}, Sensitivity: 0.6}
	}
	var taps atomic.Int64
	eval.OfferHook = func(*packet.Packet, bool) { taps.Add(1) }
	t.Cleanup(func() { eval.OfferHook = nil })
	// run runs spec in cdir and returns the IDs it committed, in commit
	// order, and the packets its testbeds tapped.
	run := func(cdir string, spec *campaign.Spec, workers, maxNew int) ([]string, int64) {
		t.Helper()
		if err := campaign.SavePlan(cdir, spec); err != nil {
			t.Fatal(err)
		}
		r := newRunner(cdir, spec)
		r.Workers, r.MaxNew = workers, maxNew
		var mu sync.Mutex
		var order []string
		r.OnCommit = func(ex campaign.Experiment, _ *campaign.Result) {
			mu.Lock()
			order = append(order, ex.ID)
			mu.Unlock()
		}
		taps.Store(0)
		if _, err := r.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return order, taps.Load()
	}

	one := filepath.Join(dir, "workers1")
	order, network := run(one, plan(field...), 1, 0)
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("Workers 1 committed %v, want plan order %v", order, want)
	}
	two := filepath.Join(dir, "workers2")
	if order, n := run(two, plan(field...), 2, 0); len(order) != 3 || n != 2*network {
		t.Fatalf("Workers 2 committed %v over %d taps; want 3 commits on two networks of %d taps", order, n, network)
	}
	resumed := filepath.Join(dir, "resumed")
	first, n1 := run(resumed, plan(field...), 1, 1)
	rest, n2 := run(resumed, plan(field...), 1, 0)
	if got := append(first, rest...); !reflect.DeepEqual(got, want) || n1 != network || n2 != network {
		t.Fatalf("MaxNew 1 then resume committed %v then %v over %d and %d taps; want %v, one network each",
			first, rest, n1, n2, want)
	}
	split := map[string]string{}
	for i, p := range field {
		split[want[i]] = filepath.Join(dir, "split", p)
		if order, n := run(split[want[i]], plan(p), 1, 0); len(order) != 1 || n != network {
			t.Fatalf("%s alone committed %v over %d taps; want one network of %d", p, order, n, network)
		}
	}

	ref := renderReport(t, one)
	for _, d := range []string{two, resumed} {
		if got := renderReport(t, d); got != ref {
			t.Fatalf("%s report differs from Workers 1:\n--- want ---\n%s\n--- got ---\n%s", filepath.Base(d), ref, got)
		}
	}
	result := func(cdir, id string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(cdir, "results", strings.ReplaceAll(id, "/", "_")+".json"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, id := range want {
		ref := result(one, id)
		for _, d := range []string{two, resumed, split[id]} {
			if got := result(d, id); !bytes.Equal(got, ref) {
				t.Fatalf("%s in %s differs from Workers 1:\n%s\nvs\n%s", id, d, got, ref)
			}
		}
	}
}

// TestTraceGroupFailureJournalsEveryMember runs three products over a
// trace file that does not exist, on one testbed's group: each of the
// two attempts must journal a failed entry for every member, naming the
// file, and the outcome must count each member failed and retried.
func TestTraceGroupFailureJournalsEveryMember(t *testing.T) {
	dir := t.TempDir()
	cdir := filepath.Join(dir, "campaign")
	missing := filepath.Join(dir, "missing.idt2")
	r := newRunner(cdir, &campaign.Spec{Name: "missing", Seed: 7, Quick: true,
		Products: []string{"NetRecorder", "TrueSecure", "StreamHunter"}, Traces: []string{missing}})
	r.Workers, r.MaxAttempts = 1, 2
	out, err := r.Run(context.Background())
	want := []string{"trace/missing/NetRecorder", "trace/missing/TrueSecure", "trace/missing/StreamHunter"}
	if err == nil || !reflect.DeepEqual(out.Failed, want) || out.Retries != 3 || out.Completed != 0 {
		t.Fatalf("outcome %+v, err %v; want %v failed after one retry each", out, err, want)
	}
	data, err := os.ReadFile(filepath.Join(cdir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var e campaign.Entry
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatal(err)
		}
		if e.Status != campaign.StatusFailed || !strings.Contains(e.Error, missing) {
			t.Fatalf("journal entry %+v: want a failure naming %s", e, missing)
		}
		got = append(got, fmt.Sprintf("%s#%d", e.ID, e.Attempt))
	}
	var wantLines []string
	for attempt := 1; attempt <= 2; attempt++ {
		for _, id := range want {
			wantLines = append(wantLines, fmt.Sprintf("%s#%d", id, attempt))
		}
	}
	if !reflect.DeepEqual(got, wantLines) {
		t.Fatalf("journal holds %v, want %v", got, wantLines)
	}
}

func TestTraceExperimentRejectsNonIDT2File(t *testing.T) {
	// IDT2 is the only trace format: a retired v1 ("IDTR") file fails
	// its experiment with the reader's error, naming the file.
	dir := t.TempDir()
	path := filepath.Join(dir, "legacy.idtr")
	v1 := []byte("IDTR\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x01")
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	a, _ := twoProducts(t)
	r := newRunner(filepath.Join(dir, "campaign"), &campaign.Spec{
		Name: "legacy", Seed: 7, Quick: true, Products: []string{a}, Traces: []string{path},
	})
	r.MaxAttempts = 1
	var log bytes.Buffer
	r.Log = &log
	out, err := r.Run(context.Background())
	if err == nil || len(out.Failed) != 1 {
		t.Fatalf("v1 trace experiment: outcome %+v, err %v; want one failure", out, err)
	}
	if want := path + ": trace: bad stream magic"; !strings.Contains(log.String(), want) {
		t.Fatalf("failure does not carry %q:\n%s", want, log.String())
	}
}

func TestRunCommitsAndResumeSkips(t *testing.T) {
	dir := t.TempDir()
	spec := syntheticSpec(t, 3)
	var calls atomic.Int64
	r := newRunner(dir, spec)
	r.SetExecOverride(func(ctx context.Context, ex campaign.Experiment) (*campaign.Result, error) {
		calls.Add(1)
		return syntheticExec(ctx, ex)
	})
	out, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed != 6 || out.Skipped != 0 {
		t.Fatalf("first run: %+v, want 6 completed", out)
	}
	if calls.Load() != 6 {
		t.Fatalf("exec calls = %d, want 6", calls.Load())
	}

	r2 := newRunner(dir, spec)
	r2.SetExecOverride(func(ctx context.Context, ex campaign.Experiment) (*campaign.Result, error) {
		t.Errorf("resume re-ran committed experiment %s", ex.ID)
		return syntheticExec(ctx, ex)
	})
	out2, err := r2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out2.Skipped != 6 || out2.Completed != 0 {
		t.Fatalf("second run: %+v, want 6 skipped", out2)
	}
}

func TestCrashResumeReportByteIdentical(t *testing.T) {
	spec := syntheticSpec(t, 4)

	clean := t.TempDir()
	if err := campaign.SavePlan(clean, spec); err != nil {
		t.Fatal(err)
	}
	r := newRunner(clean, spec)
	r.SetExecOverride(syntheticExec)
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := renderReport(t, clean)

	crashed := t.TempDir()
	if err := campaign.SavePlan(crashed, spec); err != nil {
		t.Fatal(err)
	}
	rc := newRunner(crashed, spec)
	rc.SetExecOverride(syntheticExec)
	runToCrash(t, rc, crashAfterAppends(3))
	// Simulate the kill landing mid-append on top of the crash: a torn
	// half-line at the journal tail.
	jf, err := os.OpenFile(filepath.Join(crashed, "journal.jsonl"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jf.WriteString(`{"id":"sweep/tr`); err != nil {
		t.Fatal(err)
	}
	jf.Close()

	rr := newRunner(crashed, spec)
	var resumed atomic.Int64
	rr.SetExecOverride(func(ctx context.Context, ex campaign.Experiment) (*campaign.Result, error) {
		resumed.Add(1)
		return syntheticExec(ctx, ex)
	})
	out, err := rr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Skipped != 3 {
		t.Fatalf("resume skipped %d, want the 3 journaled experiments", out.Skipped)
	}
	if resumed.Load() != 5 {
		t.Fatalf("resume ran %d experiments, want 5", resumed.Load())
	}

	got := renderReport(t, crashed)
	if got != want {
		t.Fatalf("resumed report differs from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}

	// Result payload files must match byte for byte too.
	entries, err := os.ReadDir(filepath.Join(clean, "results"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		a, err := os.ReadFile(filepath.Join(clean, "results", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(crashed, "results", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("result %s differs between clean and resumed runs", e.Name())
		}
	}
}

// TestResumeCutsJournalDamagedMidFile pins the journal's one recovery
// rule: a line damaged mid-file ends the valid prefix like a torn tail,
// so resume cuts the journal there, re-runs exactly the experiments the
// cut lines recorded, and renders the uninterrupted report.
func TestResumeCutsJournalDamagedMidFile(t *testing.T) {
	spec := syntheticSpec(t, 3)
	dir := t.TempDir()
	if err := campaign.SavePlan(dir, spec); err != nil {
		t.Fatal(err)
	}
	r := newRunner(dir, spec)
	r.SetExecOverride(syntheticExec)
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := renderReport(t, dir)

	path := filepath.Join(dir, "journal.jsonl")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(data, []byte("\n"))
	if len(lines) != 7 { // six entries and the empty rest after the last newline
		t.Fatalf("journal has %d lines, want 6 entries", len(lines)-1)
	}
	cutIDs := map[string]bool{}
	for _, line := range lines[2:6] {
		var e campaign.Entry
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatal(err)
		}
		cutIDs[e.ID] = true
	}
	// Damage the third line in place: its length and newline stay, its
	// JSON does not.
	lines[2][0] = '#'
	if err := os.WriteFile(path, bytes.Join(lines, nil), 0o644); err != nil {
		t.Fatal(err)
	}

	rr := newRunner(dir, spec)
	var mu sync.Mutex
	reran := map[string]bool{}
	rr.SetExecOverride(func(ctx context.Context, ex campaign.Experiment) (*campaign.Result, error) {
		mu.Lock()
		reran[ex.ID] = true
		mu.Unlock()
		return syntheticExec(ctx, ex)
	})
	out, err := rr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Skipped != 2 || out.Completed != 4 || !reflect.DeepEqual(reran, cutIDs) {
		t.Fatalf("resume skipped %d, completed %d, re-ran %v; want the 4 cut experiments %v",
			out.Skipped, out.Completed, reran, cutIDs)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(after, bytes.Join(lines[:2], nil)) || bytes.Contains(after, lines[2]) {
		t.Fatalf("journal after resume %q does not continue the valid prefix past the cut", after)
	}
	if got := renderReport(t, dir); got != want {
		t.Fatalf("resumed report differs from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

func TestPanicIsolationJournalsStackAndSparesSiblings(t *testing.T) {
	dir := t.TempDir()
	spec := syntheticSpec(t, 3)
	exps, err := spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	victim := exps[1].ID

	r := newRunner(dir, spec)
	r.MaxAttempts = 2
	r.SetExecOverride(func(ctx context.Context, ex campaign.Experiment) (*campaign.Result, error) {
		if ex.ID == victim {
			panic("synthetic explosion")
		}
		return syntheticExec(ctx, ex)
	})
	out, err := r.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "1 of 6 experiments failed") {
		t.Fatalf("err = %v, want permanent-failure summary", err)
	}
	if out.Completed != 5 {
		t.Fatalf("completed = %d, want the 5 siblings", out.Completed)
	}
	if len(out.Failed) != 1 || out.Failed[0] != victim {
		t.Fatalf("failed = %v, want [%s]", out.Failed, victim)
	}
	if out.Retries != 1 {
		t.Fatalf("retries = %d, want 1", out.Retries)
	}

	entries, _, err := campaign.ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := entries[victim]
	if e.Status != campaign.StatusPanicked {
		t.Fatalf("journal status = %q, want panicked", e.Status)
	}
	if !strings.Contains(e.Error, "synthetic explosion") {
		t.Fatalf("journal error = %q, want the panic value", e.Error)
	}
	if !strings.Contains(e.Stack, "goroutine") {
		t.Fatalf("journal stack missing: %q", e.Stack)
	}
}

func TestWatchdogCancelsStalledExperiment(t *testing.T) {
	dir := t.TempDir()
	spec := syntheticSpec(t, 3)
	exps, err := spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	wedged := exps[0].ID

	r := newRunner(dir, spec)
	r.MaxAttempts = 1
	r.StallTimeout = 100 * time.Millisecond
	r.Grace = 2 * time.Second
	r.SetExecOverride(func(ctx context.Context, ex campaign.Experiment) (*campaign.Result, error) {
		if ex.ID == wedged {
			// A wedged experiment: no heartbeats, only cancellable.
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return syntheticExec(ctx, ex)
	})
	out, err := r.Run(context.Background())
	if err == nil {
		t.Fatal("want a permanent-failure error for the stalled experiment")
	}
	if out.Completed != 5 {
		t.Fatalf("completed = %d, want the 5 live siblings", out.Completed)
	}
	entries, _, err := campaign.ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	e := entries[wedged]
	if e.Status != campaign.StatusTimeout {
		t.Fatalf("journal status = %q, want timeout (entry %+v)", e.Status, e)
	}
	if !strings.Contains(e.Error, "stall") {
		t.Fatalf("journal error = %q, want stall attribution", e.Error)
	}
}

func TestCancellationDrainsWithoutJournaling(t *testing.T) {
	dir := t.TempDir()
	spec := syntheticSpec(t, 4)
	ctx, cancel := context.WithCancel(context.Background())

	var started atomic.Int64
	r := newRunner(dir, spec)
	r.Workers = 1
	r.SetExecOverride(func(c context.Context, ex campaign.Experiment) (*campaign.Result, error) {
		if started.Add(1) == 3 {
			cancel()
			<-c.Done()
			return nil, c.Err()
		}
		return syntheticExec(c, ex)
	})
	out, err := r.Run(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if !out.Stopped {
		t.Fatal("outcome must be marked stopped")
	}
	if out.Completed != 2 {
		t.Fatalf("completed = %d, want the 2 experiments before the cancel", out.Completed)
	}
	entries, _, err := campaign.ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	for id, e := range entries {
		if e.Status != campaign.StatusDone {
			t.Fatalf("cancelled experiment %s was journaled as %s; cancellation must not journal", id, e.Status)
		}
	}
	if len(entries) != 2 {
		t.Fatalf("journal has %d entries, want 2", len(entries))
	}
}

func TestMaxNewStopsCleanly(t *testing.T) {
	dir := t.TempDir()
	spec := syntheticSpec(t, 4)
	r := newRunner(dir, spec)
	r.Workers = 1
	r.MaxNew = 3
	r.SetExecOverride(syntheticExec)
	out, err := r.Run(context.Background())
	if err != nil {
		t.Fatalf("-max stop must be a clean outcome, got %v", err)
	}
	if !out.Stopped || out.Completed != 3 {
		t.Fatalf("outcome = %+v, want stopped after 3", out)
	}

	r2 := newRunner(dir, spec)
	r2.SetExecOverride(syntheticExec)
	out2, err := r2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out2.Skipped != 3 || out2.Completed != 5 {
		t.Fatalf("resume outcome = %+v, want 3 skipped + 5 completed", out2)
	}
}

func TestResumeAfterJournaledPanicConvergesToCleanReport(t *testing.T) {
	spec := syntheticSpec(t, 3)
	exps, err := spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	victim := exps[0].ID

	clean := t.TempDir()
	if err := campaign.SavePlan(clean, spec); err != nil {
		t.Fatal(err)
	}
	rclean := newRunner(clean, spec)
	rclean.SetExecOverride(syntheticExec)
	if _, err := rclean.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := renderReport(t, clean)

	dir := t.TempDir()
	if err := campaign.SavePlan(dir, spec); err != nil {
		t.Fatal(err)
	}
	r := newRunner(dir, spec)
	r.MaxAttempts = 1
	r.SetExecOverride(func(ctx context.Context, ex campaign.Experiment) (*campaign.Result, error) {
		if ex.ID == victim {
			panic("first-run crash in " + victim)
		}
		return syntheticExec(ctx, ex)
	})
	if _, err := r.Run(context.Background()); err == nil {
		t.Fatal("first run must report the panicked experiment")
	}

	// The "bug" is fixed; resume re-runs only the panicked experiment.
	rr := newRunner(dir, spec)
	var reran atomic.Int64
	rr.SetExecOverride(func(ctx context.Context, ex campaign.Experiment) (*campaign.Result, error) {
		reran.Add(1)
		if ex.ID != victim {
			t.Errorf("resume re-ran healthy experiment %s", ex.ID)
		}
		return syntheticExec(ctx, ex)
	})
	out, err := rr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if reran.Load() != 1 || out.Completed != 1 || out.Skipped != 5 {
		t.Fatalf("resume: reran=%d outcome=%+v, want exactly the panicked experiment", reran.Load(), out)
	}
	if got := renderReport(t, dir); got != want {
		t.Fatalf("post-panic resume report differs from clean run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
}

// TestRealSweepCrashResumeByteIdentical exercises the full stack — real
// simulations, no exec override — proving a crashed-and-resumed
// campaign reproduces the uninterrupted run bit for bit.
func TestRealSweepCrashResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations; skipped in -short")
	}
	all := products.All()
	spec := &campaign.Spec{
		Name: "real", Seed: 11, Quick: true,
		Products: []string{all[0].Name}, SweepPoints: 2,
	}

	runner := func(dir string) *campaign.Runner {
		r := newRunner(dir, spec)
		r.Workers = 1
		return r
	}

	clean := t.TempDir()
	if err := campaign.SavePlan(clean, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := runner(clean).Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	crashed := t.TempDir()
	if err := campaign.SavePlan(crashed, spec); err != nil {
		t.Fatal(err)
	}
	runToCrash(t, runner(crashed), crashAfterAppends(1))
	if _, err := runner(crashed).Run(context.Background()); err != nil {
		t.Fatal(err)
	}

	if want, got := renderReport(t, clean), renderReport(t, crashed); got != want {
		t.Fatalf("resumed real-sweep report differs:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}
	entries, err := os.ReadDir(filepath.Join(clean, "results"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		a, err := os.ReadFile(filepath.Join(clean, "results", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(crashed, "results", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("result %s differs between clean and resumed real runs", e.Name())
		}
	}
}

// TestReleasesKeepTheirOwnTelemetry runs quick evals of NetRecorder
// 5.0 and 5.1 in one campaign: each release writes into instruments of
// its own, so 5.0's ingest counter reads what 5.0 alone writes, and
// 5.1's reads under NetRecorder_5_1.
func TestReleasesKeepTheirOwnTelemetry(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations; skipped in -short")
	}
	run := func(products ...string) *obs.Registry {
		t.Helper()
		spec := &campaign.Spec{Name: "releases", Seed: 11, Quick: true, Products: products, Evals: true}
		dir := t.TempDir()
		if err := campaign.SavePlan(dir, spec); err != nil {
			t.Fatal(err)
		}
		r := newRunner(dir, spec)
		r.Obs = obs.NewRegistry()
		if _, err := r.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		return r.Obs
	}
	const v50, v51 = "eval.NetRecorder.accuracy.ids.ingested", "eval.NetRecorder_5_1.accuracy.ids.ingested"
	alone := run("netrecorder").Counter(v50).Value()
	if alone == 0 {
		t.Fatal("NetRecorder alone ingested nothing; the check is vacuous")
	}
	both := run("netrecorder", "netrecorder:5.1")
	if got := both.Counter(v50).Value(); got != alone {
		t.Fatalf("%s = %d beside 5.1, want %d as alone", v50, got, alone)
	}
	if both.Counter(v51).Value() == 0 {
		t.Fatalf("NetRecorder 5.1 wrote no %s", v51)
	}
}

func TestRetryAfterTransientFailure(t *testing.T) {
	dir := t.TempDir()
	spec := syntheticSpec(t, 3)
	exps, err := spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	flaky := exps[2].ID

	var mu sync.Mutex
	attempts := map[string]int{}
	r := newRunner(dir, spec)
	r.MaxAttempts = 2
	r.Obs = obs.NewRegistry()
	r.SetExecOverride(func(ctx context.Context, ex campaign.Experiment) (*campaign.Result, error) {
		mu.Lock()
		attempts[ex.ID]++
		n := attempts[ex.ID]
		mu.Unlock()
		if ex.ID == flaky && n == 1 {
			return nil, fmt.Errorf("transient network blip")
		}
		return syntheticExec(ctx, ex)
	})
	out, err := r.Run(context.Background())
	if err != nil {
		t.Fatalf("flaky experiment should recover on retry: %v", err)
	}
	if out.Completed != 6 || out.Retries != 1 {
		t.Fatalf("outcome = %+v, want 6 completed with 1 retry", out)
	}
	if got := r.Obs.Counter("campaign.retried").Value(); got != 1 {
		t.Fatalf("campaign.retried = %d, want 1", got)
	}
	if got := r.Obs.Counter("campaign.completed").Value(); got != 6 {
		t.Fatalf("campaign.completed = %d, want 6", got)
	}
	if r.Obs.Histogram("campaign.checkpoint_write_ns", obs.ClockWall).Count() != 6 {
		t.Fatal("checkpoint write latency must be observed per commit")
	}
}
