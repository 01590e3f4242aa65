package campaign_test

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/fsio/faultfs"
	"repro/internal/obs"
)

// TestProgressTracksJournal pins the live-endpoint contract: a Progress
// scrape mid-run shows the in-flight experiments, and the final counts
// agree exactly with what ReplayJournal reconstructs from disk.
func TestProgressTracksJournal(t *testing.T) {
	dir := t.TempDir()
	spec := syntheticSpec(t, 3)
	r := newRunner(dir, spec)
	r.Obs = obs.NewRegistry()
	fl := r.Obs.EnableFlight(obs.DefaultFlightCapacity)

	if p := r.Progress(); p.Planned != 0 || len(p.Running) != 0 || p.Done {
		t.Fatalf("pre-run progress not zero: %+v", p)
	}

	// The first experiment to start blocks until the main goroutine has
	// scraped a mid-run snapshot; the rest run through unimpeded.
	started := make(chan string, 1)
	release := make(chan struct{})
	var first atomic.Bool
	r.SetExecOverride(func(ctx context.Context, ex campaign.Experiment) (*campaign.Result, error) {
		if first.CompareAndSwap(false, true) {
			started <- ex.ID
			<-release
		}
		return syntheticExec(ctx, ex)
	})

	type done struct {
		out *campaign.Outcome
		err error
	}
	ch := make(chan done, 1)
	go func() {
		out, err := r.Run(context.Background())
		ch <- done{out, err}
	}()

	var blocked string
	select {
	case blocked = <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("no experiment started")
	}
	mid := r.Progress()
	if mid.Name != spec.Name {
		t.Errorf("mid-run name %q, want %q", mid.Name, spec.Name)
	}
	if mid.Done {
		t.Error("mid-run snapshot claims Done")
	}
	found := false
	for _, id := range mid.Running {
		if id == blocked {
			found = true
		}
	}
	if !found {
		t.Errorf("blocked experiment %q not in Running %v", blocked, mid.Running)
	}
	close(release)

	res := <-ch
	if res.err != nil {
		t.Fatal(res.err)
	}

	p := r.Progress()
	if !p.Done {
		t.Error("post-run progress not Done")
	}
	if len(p.Running) != 0 {
		t.Errorf("post-run Running not empty: %v", p.Running)
	}
	if p.Planned != res.out.Planned || p.Skipped != res.out.Skipped ||
		p.Completed != res.out.Completed || p.Retried != res.out.Retries ||
		p.Failed != len(res.out.Failed) {
		t.Errorf("progress %+v disagrees with outcome %+v", p, res.out)
	}

	// The journal is the ground truth the endpoint must agree with.
	entries, _, err := campaign.ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	journaled := 0
	for _, e := range entries {
		if e.Status == campaign.StatusDone {
			journaled++
		}
	}
	if journaled != p.Completed {
		t.Errorf("progress completed %d != journal done %d", p.Completed, journaled)
	}

	// Every committed experiment left a start and a done mark on the
	// flight timeline.
	var starts, dones int
	for _, ev := range fl.Events() {
		switch ev.Kind {
		case obs.FlightExperimentStart:
			starts++
		case obs.FlightExperimentDone:
			dones++
			if ev.Dur <= 0 {
				t.Errorf("done event for %s has no duration", ev.Name)
			}
			if !strings.Contains(ev.Name, "/") {
				t.Errorf("done event name %q is not an experiment ID", ev.Name)
			}
		}
	}
	if dones != p.Completed || starts < dones {
		t.Errorf("flight timeline starts=%d dones=%d, want dones=%d, starts>=dones", starts, dones, p.Completed)
	}
}

// TestProgressCountsRetriesAndFailures covers the failure-side counters
// and their flight events.
func TestProgressCountsRetriesAndFailures(t *testing.T) {
	dir := t.TempDir()
	spec := syntheticSpec(t, 2)
	r := newRunner(dir, spec)
	r.Obs = obs.NewRegistry()
	fl := r.Obs.EnableFlight(obs.DefaultFlightCapacity)

	exps, err := spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	flaky, doomed := exps[0].ID, exps[1].ID
	var flakyTries atomic.Int64
	r.SetExecOverride(func(ctx context.Context, ex campaign.Experiment) (*campaign.Result, error) {
		switch ex.ID {
		case flaky:
			if flakyTries.Add(1) == 1 {
				return nil, errors.New("transient")
			}
		case doomed:
			return nil, errors.New("permanent")
		}
		return syntheticExec(ctx, ex)
	})

	out, err := r.Run(context.Background())
	if err == nil {
		t.Fatal("run with a doomed experiment reported success")
	}
	p := r.Progress()
	if p.Retried != out.Retries || p.Retried < 1 {
		t.Errorf("progress retried %d, outcome %d", p.Retried, out.Retries)
	}
	if p.Failed != len(out.Failed) || p.Failed != 1 {
		t.Errorf("progress failed %d, outcome %v", p.Failed, out.Failed)
	}
	if p.Completed != out.Completed {
		t.Errorf("progress completed %d, outcome %d", p.Completed, out.Completed)
	}

	retries := 0
	for _, ev := range fl.Events() {
		if ev.Kind == obs.FlightExperimentRetry {
			retries++
			if ev.Name != flaky && ev.Name != doomed {
				t.Errorf("retry event for unknown experiment %q", ev.Name)
			}
		}
	}
	if retries != out.Retries {
		t.Errorf("flight retries %d != outcome retries %d", retries, out.Retries)
	}
}

// TestProgressPublishesPlanBeforeRecovery pins when the plan reaches
// /progress: right after Spec.Plan, before recovery touches the disk.
// A journal that cannot be opened fails Run, and Progress still names
// the campaign and its planned size, so a scraper can tell a failed
// recovery from an empty campaign.
func TestProgressPublishesPlanBeforeRecovery(t *testing.T) {
	spec := syntheticSpec(t, 3)
	exps, err := spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	r := newRunner(t.TempDir(), spec)
	r.FS = faultfs.New(faultfs.Rule{Op: faultfs.OpOpenAppend, Path: "journal.jsonl", Err: syscall.EIO})
	if _, err := r.Run(context.Background()); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Run = %v, want the journal's EIO", err)
	}
	if p := r.Progress(); p.Name != spec.Name || p.Planned != len(exps) || !p.Done {
		t.Fatalf("progress after failed recovery = %+v, want name %q, %d planned, done", p, spec.Name, len(exps))
	}
}
