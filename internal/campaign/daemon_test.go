package campaign_test

// Tests for the journal under the daemon's usage pattern: several
// worker goroutines committing concurrently, a hard kill landing while
// appends are racing (one mid-write, one pending on the journal lock),
// and resume reproducing the uninterrupted report byte for byte. These
// pin the contract idsevald's ack path relies on: the journal line is
// the commit point even when the line under the pen is torn and a
// second writer was queued behind it.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/campaign"
)

func TestConcurrentAppendCrashTornTailResumeByteIdentical(t *testing.T) {
	spec := syntheticSpec(t, 6) // 12 experiments across 2 products

	clean := t.TempDir()
	if err := campaign.SavePlan(clean, spec); err != nil {
		t.Fatal(err)
	}
	r := newRunner(clean, spec)
	r.Workers = 4
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
	// Four workers race the journal mutex; the disk crashes at the 6th
	// append's write, after 5 durable appends, while later writers are
	// queued behind the lock — the daemon's concurrent-append shape.
	// Queued writers find the disk gone and their commits are lost
	// (they re-run on resume); nothing may corrupt the already-committed
	// prefix.
	rc.Workers = 4
	rc.SetExecOverride(syntheticExec)
	runToCrash(t, rc, crashAfterAppends(5))

	// The kill also tears the final line mid-append while a second
	// writer was pending: append a half-written entry with no newline.
	jf, err := os.OpenFile(filepath.Join(crashed, "journal.jsonl"), os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := jf.WriteString(`{"id":"sweep/` + spec.Products[1] + `/p0`); err != nil {
		t.Fatal(err)
	}
	jf.Close()

	// Replay must tolerate exactly that torn tail.
	done, lines, err := campaign.ReplayJournal(crashed)
	if err != nil {
		t.Fatalf("replay with torn tail: %v", err)
	}
	if lines != 5 || len(done) != 5 {
		t.Fatalf("replay saw %d lines / %d ids, want 5/5", lines, len(done))
	}

	rr := newRunner(crashed, spec)
	rr.Workers = 4
	rr.SetExecOverride(syntheticExec)
	out, err := rr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Skipped != 5 || out.Completed != 7 {
		t.Fatalf("resume = %+v, want 5 skipped / 7 completed", out)
	}
	if got := renderReport(t, crashed); got != want {
		t.Fatalf("resumed report differs from uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
	}

	// A second resume over the repaired journal sees a full campaign.
	rfinal := newRunner(crashed, spec)
	rfinal.SetExecOverride(func(ctx context.Context, ex campaign.Experiment) (*campaign.Result, error) {
		t.Errorf("complete campaign re-ran %s", ex.ID)
		return syntheticExec(ctx, ex)
	})
	out2, err := rfinal.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out2.Skipped != 12 {
		t.Fatalf("final resume skipped %d, want 12", out2.Skipped)
	}
}

func TestOnCommitFiresAfterDurableCommit(t *testing.T) {
	spec := syntheticSpec(t, 4) // 8 experiments
	dir := t.TempDir()
	if err := campaign.SavePlan(dir, spec); err != nil {
		t.Fatal(err)
	}
	r := newRunner(dir, spec)
	r.Workers = 4
	r.SetExecOverride(syntheticExec)

	var mu sync.Mutex
	committed := map[string]bool{}
	r.OnCommit = func(ex campaign.Experiment, res *campaign.Result) {
		// At callback time the commit must already be durable: result
		// file readable and its journal line on disk.
		if _, err := campaign.LoadResult(dir, ex.ID); err != nil {
			t.Errorf("OnCommit(%s): result not yet on disk: %v", ex.ID, err)
		}
		data, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
		if err != nil || !bytes.Contains(data, []byte(`"id":"`+ex.ID+`"`)) {
			t.Errorf("OnCommit(%s): journal line not yet durable (err %v)", ex.ID, err)
		}
		if res == nil || res.ID != ex.ID {
			t.Errorf("OnCommit(%s): result mismatch %+v", ex.ID, res)
		}
		mu.Lock()
		committed[ex.ID] = true
		mu.Unlock()
	}
	out, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed != 8 || len(committed) != 8 {
		t.Fatalf("completed %d, OnCommit saw %d, want 8/8", out.Completed, len(committed))
	}

	// Resume fires no hooks: nothing new commits.
	r2 := newRunner(dir, spec)
	r2.OnCommit = func(ex campaign.Experiment, _ *campaign.Result) {
		t.Errorf("OnCommit fired on resume for %s", ex.ID)
	}
	r2.SetExecOverride(syntheticExec)
	if _, err := r2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}
