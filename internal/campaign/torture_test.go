package campaign_test

// The campaign runner's storage-fault tests. TestCrashMatrix crosses
// every durable operation of a campaign run with every single fault a
// hostile disk can produce, one subtest per schedule label, so
// `go test -run 'TestCrashMatrix/campaign/write#7:crash-torn'` replays
// one schedule. The other tests pin the recovery bugs the matrix found,
// each replayed by its exact deterministic fault schedule.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/fsio"
	"repro/internal/fsio/faultfs"
)

// TestResumeRerunsDoneEntryWithUnusableResult pins the "wedged forever"
// bug: a journal line says done but the result file is unusable (torn,
// missing, or corrupt). Before the fix, resume skipped the experiment
// on the journal's word while Load refused the directory — the
// campaign could never complete. Resume must re-run it instead.
func TestResumeRerunsDoneEntryWithUnusableResult(t *testing.T) {
	dir := t.TempDir()
	spec := syntheticSpec(t, 3)
	if err := campaign.SavePlan(dir, spec); err != nil {
		t.Fatal(err)
	}
	r := newRunner(dir, spec)
	r.SetExecOverride(syntheticExec)
	out, err := r.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := renderReport(t, dir)

	// Corrupt one result file behind the journal's back — the disk
	// equivalent of a torn write the journal never learned about.
	ents, err := os.ReadDir(filepath.Join(dir, "results"))
	if err != nil || len(ents) == 0 {
		t.Fatalf("reading results: %v (%d entries)", err, len(ents))
	}
	victim := filepath.Join(dir, "results", ents[0].Name())
	if err := os.WriteFile(victim, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}

	r2 := newRunner(dir, spec)
	r2.SetExecOverride(syntheticExec)
	out2, err := r2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out2.Completed != 1 || out2.Skipped != out.Planned-1 {
		t.Fatalf("resume completed=%d skipped=%d, want exactly the 1 unusable result re-run", out2.Completed, out2.Skipped)
	}
	if got := renderReport(t, dir); got != want {
		t.Fatal("report after re-run differs from uninterrupted run")
	}
}

// TestLyingFsyncOnResultFileHealsOnResume is the end-to-end version
// through the hostile disk: the result file's fsync lies, the journal
// line lands durably, the power cut then exposes the loss. The exact
// schedule comes from the crash matrix (a lie on the first result
// file's fsync).
func TestLyingFsyncOnResultFileHealsOnResume(t *testing.T) {
	dir := t.TempDir()
	spec := syntheticSpec(t, 3)
	if err := campaign.SavePlan(dir, spec); err != nil {
		t.Fatal(err)
	}
	ffs := faultfs.New(faultfs.Rule{Op: faultfs.OpSync, Path: "results/", N: 1, SyncLie: true})
	r := newRunner(dir, spec)
	r.FS = ffs
	r.Exec = syntheticExec
	if _, err := r.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ffs.CrashNow()

	// The power cut truncated the lied-about result to zero bytes while
	// its journal line survived.
	torn := 0
	ents, err := os.ReadDir(filepath.Join(dir, "results"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			torn++
		}
	}
	if torn != 1 {
		t.Fatalf("crash exposed %d torn results, want 1 (schedule drifted?)", torn)
	}

	r2 := newRunner(dir, spec)
	r2.SetExecOverride(syntheticExec)
	out, err := r2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed != 1 || out.Skipped != out.Planned-1 {
		t.Fatalf("resume completed=%d skipped=%d of %d, want the torn result re-run and the rest skipped",
			out.Completed, out.Skipped, out.Planned)
	}
	if _, err := campaign.Load(dir); err != nil {
		t.Fatalf("campaign still unloadable after resume: %v", err)
	}
}

// TestResumeSweepsStrayResultTemp pins the stray-temp leak: a crash
// between a result's CreateTemp and Commit strands the atomic write's
// temp file, and before the fix no resume path removed it.
func TestResumeSweepsStrayResultTemp(t *testing.T) {
	dir := t.TempDir()
	spec := syntheticSpec(t, 3)
	if err := campaign.SavePlan(dir, spec); err != nil {
		t.Fatal(err)
	}
	ffs := faultfs.New(faultfs.Rule{Op: faultfs.OpRename, Path: "results/", N: 2, Crash: true})
	r := &campaign.Runner{
		Dir: dir, Spec: spec, FS: ffs, Workers: 1,
		MaxAttempts: 1, Backoff: time.Millisecond, StallTimeout: -1,
		Exec: syntheticExec,
	}
	if _, err := r.Run(context.Background()); err == nil {
		t.Fatal("run succeeded despite crash mid-commit")
	}
	if !hasStray(t, filepath.Join(dir, "results")) {
		t.Fatal("test premise broken: crash left no stray temp")
	}

	r2 := newRunner(dir, spec)
	r2.SetExecOverride(syntheticExec)
	if _, err := r2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if hasStray(t, dir) || hasStray(t, filepath.Join(dir, "results")) {
		t.Fatal("resume left the stray atomic-write temp file behind")
	}
	if _, err := campaign.Load(dir); err != nil {
		t.Fatalf("campaign unloadable after resume: %v", err)
	}
}

// TestCrashMatrix probes the operations of one clean serial run (the
// plan write, each result commit, each journal append), then replays
// the run once per faultfs.Matrix schedule. After each, a resume on the
// real filesystem must re-run exactly the experiments the fault left
// without a durably committed result, and give the clean run's report
// and result files byte for byte, with no torn file at a final path.
// The run is serial so that each label names one operation.
func TestCrashMatrix(t *testing.T) {
	// Hundreds of injected directory-sync and append failures would
	// each log a warning.
	prev := fsio.SetWarnLog(io.Discard)
	t.Cleanup(func() { fsio.SetWarnLog(prev) })

	spec := syntheticSpec(t, 3)
	run := func(dir string, fs fsio.FS) error {
		if err := campaign.SavePlanFS(fs, dir, spec); err != nil {
			return err
		}
		_, err := serialRunner(dir, spec, fs).Run(context.Background())
		return err
	}
	clean, probe := t.TempDir(), faultfs.New()
	again, probeAgain := t.TempDir(), faultfs.New()
	if err := errors.Join(run(clean, probe), run(again, probeAgain)); err != nil {
		t.Fatalf("clean probe run: %v", err)
	}
	if !slices.Equal(ops(clean, probe.Trace()), ops(again, probeAgain.Trace())) {
		t.Fatal("two clean runs performed different operations, so a schedule label would not name one operation")
	}
	want, wantResults := renderReport(t, clean), readTree(t, filepath.Join(clean, "results"))
	verify := func(t *testing.T, dir string) {
		// How much work did the fault durably commit? The resume must
		// skip exactly that and re-run exactly the rest. An unreadable
		// journal commits nothing; the resume repairs it.
		committed := 0
		if entries, _, err := campaign.ReplayJournal(dir); err == nil {
			for id, e := range entries {
				if e.Status != campaign.StatusDone {
					continue
				}
				if _, err := campaign.LoadResult(dir, id); err == nil {
					committed++
				}
			}
		}
		if err := campaign.SavePlan(dir, spec); err != nil {
			t.Fatalf("re-saving plan: %v", err)
		}
		out, err := serialRunner(dir, spec, nil).Run(context.Background())
		if err != nil {
			t.Fatalf("resume: %v", err)
		}
		if out.Skipped != committed || out.Completed != out.Planned-committed {
			t.Fatalf("resume did not re-run exactly the missing work: %d committed before the fault, resume skipped %d and completed %d of %d",
				committed, out.Skipped, out.Completed, out.Planned)
		}
		if got := renderReport(t, dir); got != want {
			t.Fatalf("resumed report differs from the uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
		}
		if got := readTree(t, filepath.Join(dir, "results")); !reflect.DeepEqual(got, wantResults) {
			t.Fatalf("result files differ from the uninterrupted run: %d files, want %d", len(got), len(wantResults))
		}
		if err := faultfs.CheckFinalFiles(dir); err != nil {
			t.Fatal(err)
		}
	}
	t.Run("campaign", func(t *testing.T) {
		verify(t, clean)
		for _, s := range faultfs.Matrix(probe.Trace()) {
			t.Run(s.Label, func(t *testing.T) {
				dir, ffs := t.TempDir(), faultfs.New(s.Rule)
				// Most schedules fail the run; only the resume's verdict
				// counts.
				err := run(dir, ffs)
				t.Logf("run under the fault: %v", err)
				if s.Rule.SyncLie {
					ffs.CrashNow()
				}
				verify(t, dir)
			})
		}
	})
}

// ops renders a trace recorded under dir as "op path" lines, with paths
// relative to dir and temp file names cut before their random part, so
// two runs' lines are equal when they did the same to the same files.
func ops(dir string, trace []faultfs.Record) []string {
	out := make([]string, len(trace))
	for i, r := range trace {
		path, _, _ := strings.Cut(strings.TrimPrefix(r.Path, dir), ".tmp-")
		out[i] = string(r.Op) + " " + path
	}
	return out
}

// serialRunner runs spec with one worker and synthetic experiments, so
// the operations it performs come in one fixed order.
func serialRunner(dir string, spec *campaign.Spec, fs fsio.FS) *campaign.Runner {
	return &campaign.Runner{
		Dir: dir, Spec: spec, FS: fs, Workers: 1,
		MaxAttempts: 1, Backoff: time.Millisecond, StallTimeout: -1,
		Exec: syntheticExec,
	}
}

// crashMidJournalAppend plans spec in a fresh directory and runs it into
// one crashed state: the first result commit fails at its rename and
// cannot remove its temp file, and the power is cut halfway through the
// third journal append. The journal ends in a torn line; results/ holds
// a stray temp.
func crashMidJournalAppend(t *testing.T, spec *campaign.Spec) string {
	t.Helper()
	dir := t.TempDir()
	if err := campaign.SavePlan(dir, spec); err != nil {
		t.Fatal(err)
	}
	ffs := faultfs.New(
		faultfs.Rule{Op: faultfs.OpRename, Path: "results/", Err: syscall.ENOSPC},
		faultfs.Rule{Op: faultfs.OpRemove, Path: "results/", Err: syscall.EIO},
		faultfs.Rule{Op: faultfs.OpWrite, Path: "journal.jsonl", N: 3, Crash: true, Partial: -1},
	)
	if _, err := serialRunner(dir, spec, ffs).Run(context.Background()); err == nil || !ffs.Crashed() {
		t.Fatalf("schedule did not crash the run (err %v)", err)
	}
	journal, err := os.ReadFile(filepath.Join(dir, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Count(journal, []byte("\n")) != 2 || bytes.HasSuffix(journal, []byte("\n")) || !hasStray(t, filepath.Join(dir, "results")) {
		t.Fatalf("crashed state drifted: want two journal lines and a torn third beside a stray result temp, journal %q", journal)
	}
	return dir
}

// TestCrashDuringResumeConverges crashes the campaign's recovery
// itself. From one crashed state (a torn journal append and a stray
// result temp) it records the resume's operation trace, then crashes
// the resume at each operation, before it and, for a rename or remove,
// after it too. A second resume on the real filesystem must still give
// the uninterrupted run's report and result files, byte for byte.
func TestCrashDuringResumeConverges(t *testing.T) {
	spec := syntheticSpec(t, 3)
	clean := t.TempDir()
	if err := campaign.SavePlan(clean, spec); err != nil {
		t.Fatal(err)
	}
	if _, err := serialRunner(clean, spec, nil).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	want, wantResults := renderReport(t, clean), readTree(t, filepath.Join(clean, "results"))

	probe := faultfs.New()
	if _, err := serialRunner(crashMidJournalAppend(t, spec), spec, probe).Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, p := range faultfs.CrashPoints(probe.Trace()) {
		t.Run(p.Label, func(t *testing.T) {
			dir := crashMidJournalAppend(t, spec)
			ffs := faultfs.New(p.Rule)
			serialRunner(dir, spec, ffs).Run(context.Background())
			if !ffs.Crashed() {
				t.Fatal("the resume never reached the operation")
			}
			if _, err := serialRunner(dir, spec, nil).Run(context.Background()); err != nil {
				t.Fatalf("resume after the crashed resume: %v", err)
			}
			if got := renderReport(t, dir); got != want {
				t.Fatalf("report differs from the uninterrupted run:\n--- want ---\n%s\n--- got ---\n%s", want, got)
			}
			if got := readTree(t, filepath.Join(dir, "results")); !reflect.DeepEqual(got, wantResults) {
				t.Fatalf("result files differ from the uninterrupted run: %d files, want %d", len(got), len(wantResults))
			}
		})
	}
}

// readTree maps every file name in dir to its contents.
func readTree(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string]string{}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = string(b)
	}
	return files
}

func hasStray(t *testing.T, dir string) bool {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return false
		}
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			return true
		}
	}
	return false
}
