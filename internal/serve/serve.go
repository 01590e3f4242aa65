// Package serve is idsevald's engine: a crash-tolerant online
// evaluation service that accepts IDT2 traces as chunked streams,
// evaluates them against the product matrix through the durable
// campaign runner, and streams incremental results and the final
// scorecard back to the submitter.
//
// The package holds three contracts the daemon is built around:
//
//   - Exact shed accounting. Every chunk a client submits ends in
//     exactly one ledger class — delivered, rejected, duplicate,
//     pending, or one shed-reason counter — at every instant, including
//     across a kill -9. Counts.Check is the machine-checkable
//     invariant; the overload soak test holds it under sustained
//     rejection pressure.
//
//   - Ack-is-durable. A chunk is acked only after its payload is
//     appended to the stream's spool and fsynced AND its ack-journal
//     line is appended and fsynced, in that order. A restart opens the
//     ack journal as an fsio log, whose valid prefix is the acked
//     chunks, and cuts the journal and spool after them, so the Hello
//     response's "next" ordinal tells the client exactly where to
//     resume — acked work is never re-uploaded and never lost.
//
//   - Byte-identical recovery. Accepted streams are evaluated through
//     internal/campaign, whose journal line is the commit point; a
//     daemon killed at any instant and restarted re-runs only the
//     missing experiments and renders a scorecard byte-identical to an
//     uninterrupted run (cmd/idsevald's TestKillRestartResume pins this
//     end to end with a real SIGKILL).
//
// Backpressure is explicit rather than implicit: admission control caps
// open streams, the evaluation queue is bounded, and the spool has a
// byte budget. Work beyond any limit is refused synchronously with a
// Retry-After hint (the client backs off and retries), or — when the
// pressure comes from streams that went idle holding spool space — shed
// with its reason accounted.
package serve

import (
	"fmt"
	"io"
	"time"

	"repro/internal/fsio"
	"repro/internal/obs"
)

// Config configures a Service. The zero value of every limit selects a
// sensible default; Dir is the only required field.
type Config struct {
	// Dir is the service's durable root; streams live in Dir/streams.
	Dir string
	// MaxStreams caps concurrently open (still uploading) streams
	// (default 32).
	MaxStreams int
	// QueueDepth bounds streams finished and waiting for an evaluation
	// worker (default 8). A full queue rejects Finish with Retry-After;
	// the chunks stay durable and pending.
	QueueDepth int
	// EvalWorkers is the number of concurrent stream evaluations
	// (default 2). Each evaluation runs its campaign with Workers=1, so
	// this is the daemon's total evaluation parallelism. -1 starts no
	// workers at all — torture and recovery tests use that to inspect
	// the post-recovery queue without evaluations racing ahead.
	EvalWorkers int
	// MaxSpoolBytes budgets the total spool bytes held by open streams
	// (default 256 MiB). An accept that would exceed it first sheds the
	// longest-idle other open stream (accounted shed.overload); if the
	// budget is still exceeded the chunk is rejected with Retry-After.
	MaxSpoolBytes int64
	// IdleExpiry is the per-stream deadline: an uploading stream (open,
	// or finishing with its delivery never retried) with no activity
	// for this long is shed (accounted shed.idle; default 10m).
	IdleExpiry time.Duration
	// StallTimeout is handed to the campaign runner's heartbeat
	// watchdog: an evaluation with no kernel heartbeat for this long is
	// cancelled and retried (default 2m, negative disables).
	StallTimeout time.Duration
	// MaxAttempts bounds evaluation attempts per experiment (default 2).
	MaxAttempts int
	// Backoff is the campaign runner's doubling retry backoff (default
	// 100ms).
	Backoff time.Duration
	// RetryAfter is the hint attached to backpressure rejections
	// (default 2s).
	RetryAfter time.Duration
	// ConnTimeout bounds each frame read and write on a TCP connection
	// (default 30s). A peer that stalls mid-frame is disconnected;
	// its acked chunks stay durable.
	ConnTimeout time.Duration
	// Obs, when set, receives the serve.* instrumentation and the
	// campaign runner's counters.
	Obs *obs.Registry
	// Log, when set, receives operational lines (never protocol data).
	Log io.Writer
	// FS is the storage seam every durability-bearing write and every
	// recovery read goes through: spool appends, the ack journal, the
	// state records, and the campaign files beneath. nil means the real
	// filesystem; TestCrashMatrix substitutes a fault-injecting one.
	FS fsio.FS
}

const (
	// maxFrameBytes caps a single frame payload on the wire (the frame
	// reader also hard-caps it at trace.MaxFramePayload).
	maxFrameBytes = 4 << 20
	// shedWindow is the trailing window in which any shed marks
	// /healthz degraded.
	shedWindow = 10 * time.Second
)

func (c *Config) applyDefaults() {
	if c.MaxStreams <= 0 {
		c.MaxStreams = 32
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.EvalWorkers < 0 {
		c.EvalWorkers = 0
	} else if c.EvalWorkers == 0 {
		c.EvalWorkers = 2
	}
	if c.MaxSpoolBytes <= 0 {
		c.MaxSpoolBytes = 256 << 20
	}
	if c.IdleExpiry <= 0 {
		c.IdleExpiry = 10 * time.Minute
	}
	if c.StallTimeout == 0 {
		c.StallTimeout = 2 * time.Minute
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 2
	}
	if c.Backoff <= 0 {
		c.Backoff = 100 * time.Millisecond
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = 2 * time.Second
	}
	if c.ConnTimeout <= 0 {
		c.ConnTimeout = 30 * time.Second
	}
}

func (c *Config) logf(format string, args ...any) {
	if c.Log != nil {
		fmt.Fprintf(c.Log, format+"\n", args...)
	}
}

// RejectError is a synchronous backpressure refusal: the work was not
// accepted, nothing is pending, and the client should retry after the
// hint. On the wire it becomes a Reject frame (TCP) or a 429 with a
// Retry-After header (HTTP).
type RejectError struct {
	Reason     string
	RetryAfter time.Duration
}

func (e *RejectError) Error() string {
	return fmt.Sprintf("serve: rejected: %s (retry after %v)", e.Reason, e.RetryAfter)
}

// ProtocolError is a client-side protocol violation: wrong ordinal,
// unknown stream, malformed metadata. Next, when nonzero, tells the
// client the ordinal the server expects so it can resynchronize.
type ProtocolError struct {
	Msg  string
	Next uint32
}

func (e *ProtocolError) Error() string { return "serve: protocol: " + e.Msg }
