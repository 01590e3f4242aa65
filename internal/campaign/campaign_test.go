package campaign_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/products"
	"repro/internal/report"
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
	rc.SetCrashAfter(3)
	if _, err := rc.Run(context.Background()); !errors.Is(err, campaign.ErrCrashInjected) {
		t.Fatalf("crash run error = %v, want ErrCrashInjected", err)
	}
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

	run := func(dir string, crashAfter int) error {
		r := newRunner(dir, spec)
		r.Workers = 1
		if crashAfter > 0 {
			r.SetCrashAfter(crashAfter)
		}
		_, err := r.Run(context.Background())
		return err
	}

	clean := t.TempDir()
	if err := campaign.SavePlan(clean, spec); err != nil {
		t.Fatal(err)
	}
	if err := run(clean, 0); err != nil {
		t.Fatal(err)
	}

	crashed := t.TempDir()
	if err := campaign.SavePlan(crashed, spec); err != nil {
		t.Fatal(err)
	}
	if err := run(crashed, 1); !errors.Is(err, campaign.ErrCrashInjected) {
		t.Fatalf("crash run error = %v, want ErrCrashInjected", err)
	}
	if err := run(crashed, 0); err != nil {
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
