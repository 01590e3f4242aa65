package campaign

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fsio"
	"repro/internal/obs"
	"repro/internal/par"
)

// Runner executes a campaign in a directory, resuming from whatever
// the journal already committed.
type Runner struct {
	Dir  string
	Spec *Spec
	// Workers bounds the experiment-level pool (0 = all cores), and
	// with it how many testbeds a trace's replays are dealt to (groups).
	// Each experiment's own internal fan-out is forced serial, so the
	// campaign is the only source of parallelism.
	Workers int
	// MaxAttempts bounds retries per experiment (default 2: one retry).
	MaxAttempts int
	// Backoff sleeps before each retry, doubling per attempt (default
	// 100ms; tests shrink it).
	Backoff time.Duration
	// StallTimeout cancels an attempt whose simulation stops making
	// progress — no heartbeat (kernel interrupt check) for this long
	// (default 2m; 0 keeps the default, negative disables).
	StallTimeout time.Duration
	// Grace is how long a cancelled attempt gets to drain before its
	// goroutine is abandoned (default 5s).
	Grace time.Duration
	// MaxNew, when > 0, stops the campaign cleanly after that many
	// newly committed experiments — a deterministic interruption for
	// smoke tests and incremental runs.
	MaxNew int
	// Obs, when set, receives campaign instrumentation: experiments
	// completed/failed/retried/skipped counters, the checkpoint
	// write-latency histogram, and each eval experiment's telemetry
	// under "eval.<Product>.".
	Obs *obs.Registry
	// Log, when set, receives one progress line per experiment verdict
	// (stderr in the CLI). Never part of the report.
	Log io.Writer
	// OnCommit, when set, is called after an experiment's result file
	// and journal line are both durably on disk — the commit point. The
	// daemon streams incremental results to subscribers from here.
	// Called from worker goroutines; must be safe for concurrent use.
	// It observes only: the result is already committed, and the report
	// stays byte-identical with or without the hook.
	OnCommit func(ex Experiment, res *Result)
	// FS is the storage seam every durability-bearing write and every
	// recovery read goes through (plan, journal, result files).
	// nil means the real filesystem; TestCrashMatrix substitutes a
	// fault-injecting one.
	FS fsio.FS
	// Exec, when set, substitutes experiment execution — the seam the
	// torture matrix and tests use to make experiments instant and
	// deterministic without touching the commit discipline.
	Exec func(ctx context.Context, ex Experiment) (*Result, error)

	journal *fsio.AppendFile
	mu      sync.Mutex // serializes journal appends

	// Live progress, served by the -listen /progress endpoint while Run
	// executes. Guarded by its own mutex so scrapes never contend with
	// journal appends.
	progMu    sync.Mutex
	prog      Progress
	progStart time.Time
	running   map[string]struct{}
}

// Progress is a point-in-time view of a running campaign for the live
// observability endpoint. Counters move only after their journal entry
// is durably appended, so a scrape always agrees with what a crash-
// resume would reconstruct from the journal.
type Progress struct {
	Name      string `json:"name"`
	Planned   int    `json:"planned"`
	Skipped   int    `json:"skipped"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed"`
	Retried   int    `json:"retried"`
	// Running lists in-flight experiment IDs, sorted.
	Running []string `json:"running"`
	// Done is set once Run has returned.
	Done      bool  `json:"done"`
	ElapsedMs int64 `json:"elapsed_ms"`
}

// Progress returns the runner's current progress. Safe to call from any
// goroutine at any time, including before Run starts (zero value) and
// after it returns (Done set).
func (r *Runner) Progress() Progress {
	r.progMu.Lock()
	defer r.progMu.Unlock()
	p := r.prog
	p.Running = make([]string, 0, len(r.running))
	for id := range r.running {
		p.Running = append(p.Running, id)
	}
	sort.Strings(p.Running)
	if !r.progStart.IsZero() {
		p.ElapsedMs = time.Since(r.progStart).Milliseconds()
	}
	return p
}

// track mutates the progress snapshot under its lock.
func (r *Runner) track(fn func(p *Progress)) {
	r.progMu.Lock()
	fn(&r.prog)
	r.progMu.Unlock()
}

func (r *Runner) setRunning(id string, on bool) {
	r.progMu.Lock()
	if r.running == nil {
		r.running = map[string]struct{}{}
	}
	if on {
		r.running[id] = struct{}{}
	} else {
		delete(r.running, id)
	}
	r.progMu.Unlock()
}

// flight is the runner's recorder, nil (a no-op) unless the registry
// armed one.
func (r *Runner) flight() *obs.FlightRecorder {
	if r.Obs == nil {
		return nil
	}
	return r.Obs.Flight()
}

// Outcome summarizes one Run call.
type Outcome struct {
	Planned int
	// Skipped experiments were already journaled done before this run.
	Skipped int
	// Completed experiments were committed by this run.
	Completed int
	// Failed experiments exhausted their attempts this run.
	Failed []string
	// Retries counts extra attempts consumed across all experiments.
	Retries int
	// Stopped is set when the run ended early: cancellation or MaxNew
	// reached.
	Stopped bool
}

// errStalled marks a watchdog cancellation (vs. parent cancellation).
var errStalled = errors.New("campaign: stall watchdog expired")

func (r *Runner) applyDefaults() {
	if r.MaxAttempts <= 0 {
		r.MaxAttempts = 2
	}
	if r.Backoff <= 0 {
		r.Backoff = 100 * time.Millisecond
	}
	if r.StallTimeout == 0 {
		r.StallTimeout = 2 * time.Minute
	}
	if r.Grace <= 0 {
		r.Grace = 5 * time.Second
	}
}

func (r *Runner) logf(format string, args ...any) {
	if r.Log != nil {
		fmt.Fprintf(r.Log, format+"\n", args...)
	}
}

// Run executes every experiment the journal has not committed, honoring
// ctx for graceful shutdown: on cancellation, in-flight simulations
// halt at the kernel's interrupt stride, their completions are NOT
// journaled (they re-run on resume), and the journal is left at the
// last fully committed experiment. Failed experiments do not cancel
// their siblings; Run reports them in the outcome and error.
func (r *Runner) Run(ctx context.Context) (*Outcome, error) {
	r.applyDefaults()
	fsys := fsio.DefaultFS(r.FS)
	if r.Spec == nil {
		spec, err := loadPlanFS(fsys, r.Dir)
		if err != nil {
			return nil, err
		}
		r.Spec = spec
	}
	exps, err := r.Spec.Plan()
	if err != nil {
		return nil, err
	}
	// Publish the plan before recovery touches the disk, so /progress
	// names the campaign and its size from the start, even when the
	// recovery below fails.
	r.progMu.Lock()
	r.prog = Progress{Name: r.Spec.Name, Planned: len(exps)}
	r.progStart = time.Now()
	r.running = map[string]struct{}{}
	r.progMu.Unlock()
	defer r.track(func(p *Progress) { p.Done = true })
	if err := fsys.MkdirAll(resultsDir(r.Dir), 0o755); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	// A crash mid-commit leaves the atomic write's temp file behind;
	// it never threatens a final path, but across many crashes the
	// strays add up. Resume owns these directories — sweep them.
	if n := fsio.CleanStrayTemps(fsys, r.Dir) + fsio.CleanStrayTemps(fsys, resultsDir(r.Dir)); n > 0 {
		r.logf("campaign: removed %d stray temp file(s) left by an earlier crash", n)
	}
	done := map[string]Entry{}
	jf, cut, err := fsio.OpenLog(fsys, journalFile(r.Dir), keepEntry(done, new(int)))
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	r.journal = jf
	defer jf.Close()
	if cut > 0 {
		r.logf("campaign: cut %d journal byte(s) after its valid prefix; what they recorded re-runs", cut)
	}

	out := &Outcome{Planned: len(exps)}
	var pending []Experiment
	for _, ex := range exps {
		if e, ok := done[ex.ID]; ok && e.Status == StatusDone {
			// Trust but verify: "done" promises a usable result file. A
			// lying fsync (journal line survived the crash, result bytes
			// did not) breaks that promise, and skipping here would wedge
			// the campaign forever — Load() refuses the directory while
			// resume keeps insisting there is nothing left to run. Re-run
			// instead; the rewrite atomically replaces the bad file.
			if _, lerr := loadResultFS(fsys, r.Dir, ex.ID); lerr != nil {
				r.count("campaign.result_reruns", 1)
				r.logf("  redo  %-40s journaled done but result unusable: %v", ex.ID, lerr)
				pending = append(pending, ex)
				continue
			}
			out.Skipped++
			continue
		}
		pending = append(pending, ex)
	}
	r.count("campaign.skipped", out.Skipped)
	r.track(func(p *Progress) { p.Skipped = out.Skipped })
	r.logf("campaign %s: %d experiments planned, %d already done, %d to run",
		r.Spec.Name, out.Planned, out.Skipped, len(pending))
	if len(pending) == 0 {
		return out, nil
	}

	// stop cancels the remaining experiments without marking the parent
	// ctx — used by MaxNew.
	runCtx, stop := context.WithCancelCause(ctx)
	defer stop(nil)

	var mu sync.Mutex
	// counted books one newly committed experiment and reports whether
	// the run may commit another.
	counted := func() bool {
		mu.Lock()
		defer mu.Unlock()
		out.Completed++
		if r.MaxNew > 0 && out.Completed >= r.MaxNew {
			stop(context.Canceled)
			return false
		}
		return true
	}
	groups := r.groups(pending)
	errs := par.ForEachAll(runCtx, len(groups), r.Workers, func(ctx context.Context, i int) error {
		done, retries, err := r.runGroup(ctx, groups[i], counted)
		mu.Lock()
		defer mu.Unlock()
		out.Retries += retries
		if err != nil && !isCancel(err) {
			for _, ex := range groups[i][done:] {
				out.Failed = append(out.Failed, ex.ID)
			}
		}
		return err
	})

	var firstCancel error
	for _, e := range errs {
		if e != nil && isCancel(e) && firstCancel == nil {
			firstCancel = e
		}
	}
	if ctx.Err() != nil {
		out.Stopped = true
		return out, ctx.Err()
	}
	if firstCancel != nil && r.MaxNew > 0 {
		// MaxNew tripped the internal stop; a clean, expected outcome.
		out.Stopped = true
		return out, nil
	}
	if len(out.Failed) > 0 {
		return out, fmt.Errorf("campaign: %d of %d experiments failed permanently (see journal)", len(out.Failed), len(pending))
	}
	if firstCancel != nil {
		out.Stopped = true
		return out, firstCancel
	}
	return out, nil
}

// groups splits the pending experiments into the units the pool runs.
// A trace's pending replays are dealt round-robin, in plan order, to
// min(Workers, n) groups, as SensitivitySweep deals its points to
// testbeds: each group replays the trace once, on one testbed, for all
// its members (eval.RunTraceAccuracyStream). Every other experiment is
// a group of its own. Groups keep the plan's order, by first member,
// and list their members in plan order.
func (r *Runner) groups(pending []Experiment) [][]Experiment {
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	replays := map[string][]Experiment{}
	for _, ex := range pending {
		if ex.Kind == KindTrace {
			replays[ex.Trace] = append(replays[ex.Trace], ex)
		}
	}
	var out [][]Experiment
	for _, ex := range pending {
		if ex.Kind != KindTrace {
			out = append(out, []Experiment{ex})
			continue
		}
		members, ok := replays[ex.Trace]
		if !ok {
			continue // dealt at the trace's first pending replay
		}
		delete(replays, ex.Trace)
		n := min(workers, len(members))
		dealt := make([][]Experiment, n)
		for i, m := range members {
			dealt[i%n] = append(dealt[i%n], m)
		}
		out = append(out, dealt...)
	}
	return out
}

// runGroup drives one group through its attempts. Every member shares
// each attempt, and the journal books each attempt for every member as
// it would a lone experiment's: a failed attempt appends one entry per
// member and costs each member a retry, and a successful one commits
// each member's result in plan order, calling counted after each
// commit and stopping when it reports the run full. It returns how many
// members it committed, the retries it used, and the error that ended
// it; a cancellation error means the uncommitted members neither
// succeeded nor failed — they re-run on resume.
func (r *Runner) runGroup(ctx context.Context, group []Experiment, counted func() bool) (int, int, error) {
	retries := 0
	backoff := r.Backoff
	for _, ex := range group {
		r.setRunning(ex.ID, true)
	}
	defer func() {
		for _, ex := range group {
			r.setRunning(ex.ID, false)
		}
	}()
	for attempt := 1; ; attempt++ {
		start := time.Now()
		for _, ex := range group {
			r.flight().Record(obs.FlightExperimentStart, -1, -1, int64(attempt), ex.ID)
		}
		results, err := r.attempt(ctx, group)
		elapsed := time.Since(start)

		if err == nil {
			for i, ex := range group {
				if cerr := r.commit(ex, results[i], attempt, elapsed); cerr != nil {
					return i, retries, cerr
				}
				r.count("campaign.completed", 1)
				r.track(func(p *Progress) { p.Completed++ })
				if r.OnCommit != nil {
					r.OnCommit(ex, results[i])
				}
				r.flight().RecordSpan(obs.FlightExperimentDone, -1, start, elapsed, -1, int64(attempt), ex.ID)
				r.logf("  done  %-40s (attempt %d, %v)", ex.ID, attempt, elapsed.Round(time.Millisecond))
				if !counted() && i+1 < len(group) {
					return i + 1, retries, context.Canceled
				}
			}
			return len(group), retries, nil
		}

		// Parent cancellation: stop quietly, do not journal — the
		// experiments are simply unfinished.
		if isCancel(err) && !errors.Is(err, errStalled) {
			return 0, retries, err
		}

		status := StatusFailed
		var pe *PanicError
		switch {
		case errors.As(err, &pe):
			status = StatusPanicked
		case errors.Is(err, errStalled):
			status = StatusTimeout
		}
		for _, ex := range group {
			entry := Entry{ID: ex.ID, Status: status, Attempt: attempt,
				Error: err.Error(), ElapsedMs: elapsed.Milliseconds()}
			if pe != nil {
				entry.Stack = pe.Stack
				r.flight().Record(obs.FlightExperimentPanic, -1, -1, int64(attempt), ex.ID)
			}
			if jerr := r.append(entry); jerr != nil {
				return 0, retries, jerr
			}
			r.logf("  %s %-40s attempt %d: %v", status, ex.ID, attempt, err)
		}

		if attempt >= r.MaxAttempts {
			r.count("campaign.failed", len(group))
			r.track(func(p *Progress) { p.Failed += len(group) })
			return 0, retries, fmt.Errorf("campaign: %s failed after %d attempts: %w", groupName(group), attempt, err)
		}
		retries += len(group)
		r.count("campaign.retried", len(group))
		r.track(func(p *Progress) { p.Retried += len(group) })
		for _, ex := range group {
			r.flight().Record(obs.FlightExperimentRetry, -1, -1, int64(attempt), ex.ID)
		}
		select {
		case <-ctx.Done():
			return 0, retries, ctx.Err()
		case <-time.After(backoff):
		}
		backoff *= 2
	}
}

// groupName names a group in errors: its one experiment's ID, or its
// members' IDs joined by "+".
func groupName(group []Experiment) string {
	ids := make([]string, len(group))
	for i, ex := range group {
		ids[i] = ex.ID
	}
	return strings.Join(ids, "+")
}

// PanicError wraps a recovered experiment panic; the stack goes into
// the journal so a crash-looping experiment is diagnosable after the
// fact.
type PanicError struct {
	Value string
	Stack string
}

func (p *PanicError) Error() string { return "panic: " + p.Value }

// attempt executes a group once under panic isolation and the stall
// watchdog. The group's body runs on its own goroutine writing to a
// buffered channel: if a wedged simulation ignores cancellation, the
// goroutine is abandoned after Grace (it can only write to the buffered
// channel, never to shared state) instead of hanging the campaign.
func (r *Runner) attempt(parent context.Context, group []Experiment) ([]*Result, error) {
	ctx, cancel := context.WithCancelCause(parent)
	defer cancel(nil)

	// The watchdog distinguishes slow-but-progressing from wedged: the
	// simulation kernel beats on every interrupt check, so only a sim
	// that stopped executing events (or a non-sim hang) trips it.
	var lastBeat atomic.Int64
	lastBeat.Store(time.Now().UnixNano())
	if r.StallTimeout > 0 {
		ctx = par.WithHeartbeat(ctx, func() {
			lastBeat.Store(time.Now().UnixNano())
		})
		wdDone := make(chan struct{})
		defer close(wdDone)
		go func() {
			tick := time.NewTicker(r.StallTimeout / 4)
			defer tick.Stop()
			for {
				select {
				case <-wdDone:
					return
				case <-ctx.Done():
					return
				case <-tick.C:
					idle := time.Since(time.Unix(0, lastBeat.Load()))
					if idle > r.StallTimeout {
						cancel(fmt.Errorf("%w: no progress for %v in %s", errStalled, idle.Round(time.Millisecond), groupName(group)))
						return
					}
				}
			}
		}()
	}

	type outcome struct {
		res []*Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				ch <- outcome{err: &PanicError{Value: fmt.Sprint(p), Stack: string(debug.Stack())}}
			}
		}()
		res, err := r.execute(ctx, group)
		ch <- outcome{res, err}
	}()

	finish := func(o outcome) ([]*Result, error) {
		if o.err != nil && context.Cause(ctx) != nil && errors.Is(context.Cause(ctx), errStalled) {
			// Attribute the cancellation to the watchdog, not the
			// generic context error the sim surfaced.
			return nil, context.Cause(ctx)
		}
		return o.res, o.err
	}
	select {
	case o := <-ch:
		return finish(o)
	case <-ctx.Done():
		select {
		case o := <-ch:
			return finish(o)
		case <-time.After(r.Grace):
			cause := context.Cause(ctx)
			return nil, fmt.Errorf("campaign: %s abandoned %v after cancellation: %w",
				groupName(group), r.Grace, cause)
		}
	}
}

// commit persists an experiment: result file first (atomic), then the
// journal line (durable append). A crash between the two leaves an
// orphaned result file and no journal line — the experiment re-runs on
// resume and atomically overwrites the orphan with identical bytes.
func (r *Runner) commit(ex Experiment, res *Result, attempt int, elapsed time.Duration) error {
	b, err := res.encode()
	if err != nil {
		return err
	}
	start := time.Now()
	err = fsio.WriteAtomicFS(fsio.DefaultFS(r.FS), resultFile(r.Dir, ex.ID), func(w io.Writer) error {
		_, werr := w.Write(b)
		return werr
	})
	if err != nil {
		return err
	}
	if jerr := r.append(Entry{ID: ex.ID, Status: StatusDone, Attempt: attempt,
		ElapsedMs: elapsed.Milliseconds()}); jerr != nil {
		return jerr
	}
	if r.Obs != nil {
		r.Obs.Histogram("campaign.checkpoint_write_ns", obs.ClockWall).ObserveDuration(time.Since(start))
	}
	return nil
}

// append serializes and durably appends one journal entry.
func (r *Runner) append(e Entry) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := jsonMarshalLine(e)
	if err != nil {
		return err
	}
	return r.journal.Append(b)
}

func (r *Runner) count(name string, n int) {
	if r.Obs != nil && n > 0 {
		r.Obs.Counter(name).Add(uint64(n))
	}
}

func isCancel(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
