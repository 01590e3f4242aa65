package serve

import (
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/core"
	"repro/internal/fsio"
	"repro/internal/obs"
	"repro/internal/obs/httpexport"
	"repro/internal/report"
	"repro/internal/trace"
)

// Service is the evaluation daemon's engine: admission control, the
// durable chunk spool, the bounded evaluation queue, and the exact
// shed-accounting ledger. Transports (TCP framing, HTTP ingest) are
// thin adapters over its methods.
type Service struct {
	cfg    Config
	fs     fsio.FS
	ledger *Ledger

	mu       sync.Mutex
	streams  map[string]*stream
	queue    []*stream
	cond     *sync.Cond
	draining bool
	closed   bool
	inflight int // evaluations currently running

	// spoolBytes tracks spool bytes held by open streams. It is atomic
	// rather than s.mu-guarded because it must move in the same st.mu
	// critical section as st.bytes — accept adds, shed and delivery
	// subtract — so the budget always equals the sum of open streams'
	// accounted bytes exactly, with no window where a shed can subtract
	// bytes that were never added (or vice versa).
	spoolBytes atomic.Int64

	runCtx    context.Context
	runCancel context.CancelFunc
	wg        sync.WaitGroup
}

// Open starts a service over cfg.Dir, recovering every stream the
// previous process left behind: terminal streams replay into the
// ledger as tombstones, finished-but-unevaluated streams re-enter the
// queue, and half-uploaded streams reopen exactly after their last
// acked chunk.
func Open(cfg Config) (*Service, error) {
	cfg.applyDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("serve: Config.Dir is required")
	}
	fsys := fsio.DefaultFS(cfg.FS)
	if err := fsys.MkdirAll(filepath.Join(cfg.Dir, "streams"), 0o755); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &Service{
		cfg:     cfg,
		fs:      fsys,
		ledger:  newLedger(cfg.Obs),
		streams: map[string]*stream{},
	}
	s.cond = sync.NewCond(&s.mu)
	s.runCtx, s.runCancel = context.WithCancel(context.Background())
	if err := s.recover(); err != nil {
		for _, st := range s.streams {
			st.closeFiles()
		}
		return nil, err
	}
	for i := 0; i < cfg.EvalWorkers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	s.wg.Add(1)
	go s.reaper()
	s.updateGauges()
	return s, nil
}

func (s *Service) streamDir(name string) string {
	return filepath.Join(s.cfg.Dir, "streams", name)
}

// recover scans the stream directories and rebuilds both the in-memory
// map and the ledger, so the accounting invariant spans restarts.
func (s *Service) recover() error {
	root := filepath.Join(s.cfg.Dir, "streams")
	entries, err := s.fs.ReadDir(root)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	for _, ent := range entries {
		if !ent.IsDir() {
			continue
		}
		name := ent.Name()
		dir := filepath.Join(root, name)
		st := &stream{name: name, dir: dir, ledger: s.ledger, spoolAcct: &s.spoolBytes, lastActive: time.Now()}
		var shed shedRecord
		var fin finishRecord
		var fail failRecord
		var rerr error
		read := func(file string, v any) bool {
			ok, err := readRecord(s.fs, st.path(file), v)
			rerr = cmp.Or(rerr, err)
			return ok
		}
		hasMeta, isShed, isFailed, scored, finished := read(metaFile, &st.meta), read(shedFile, &shed),
			read(failedFile, &fail), read(scorecardFile, nil), read(finishFile, &fin)
		if rerr != nil {
			return fmt.Errorf("serve: recovering stream %s: %w", name, rerr)
		}
		// A crash mid-commit (meta, finish, tombstone, plan, scorecard)
		// strands the atomic write's temp file; sweep the directories
		// this service owns before interpreting what's left.
		if n := fsio.CleanStrayTemps(s.fs, dir) +
			fsio.CleanStrayTemps(s.fs, filepath.Join(dir, campaignDir)) +
			fsio.CleanStrayTemps(s.fs, filepath.Join(dir, campaignDir, "results")); n > 0 {
			s.cfg.logf("serve: stream %s: removed %d stray temp file(s) left by an earlier crash", name, n)
		}
		if !hasMeta {
			// Crash between mkdir and the atomic meta write: nothing was
			// ever acked under this name, so the empty husk is removable.
			s.cfg.logf("serve: removing meta-less stream dir %s", name)
			s.fs.RemoveAll(dir)
			continue
		}

		switch {
		case isShed:
			st.state = StateShed
			st.chunks = shed.Chunks
			st.reason = string(shed.Reason)
			s.ledger.Restore(shed.Chunks, false, false, shed.Reason)
			// The shed commit point is the tombstone; a crash between it
			// and the removals leaves the dead spool and ack journal
			// behind. Finish the job — they hold disk, not budget.
			if errSpool, errAcks := s.fs.Remove(st.path(spoolFile)), s.fs.Remove(st.path(ackFile)); errSpool == nil || errAcks == nil {
				s.cfg.logf("serve: stream %s: removed spool left behind by interrupted shed", name)
			}
		case isFailed:
			st.state = StateFailed
			st.chunks = fail.Chunks
			st.reason = fail.Error
			s.ledger.Restore(fail.Chunks, false, true, "")
		case scored:
			st.state = StateDone
			if finished {
				st.chunks, st.bytes = fin.Chunks, fin.Bytes
			}
			s.ledger.Restore(st.chunks, false, true, "")
		case finished:
			// Delivered but not (fully) evaluated: re-enter the queue.
			// Recovery bypasses QueueDepth — these chunks were already
			// admitted and acked; refusing them now would break the
			// delivery promise.
			st.state = StateQueued
			st.chunks, st.bytes = fin.Chunks, fin.Bytes
			s.ledger.Restore(fin.Chunks, false, true, "")
			s.queue = append(s.queue, st)
		default:
			// Mid-upload: reopen exactly after the last acked chunk.
			if err := st.reopen(s.fs); err != nil {
				return fmt.Errorf("serve: recovering stream %s: %w", name, err)
			}
			st.state = StateOpen
			s.ledger.Restore(st.chunks, true, false, "")
			s.spoolBytes.Add(st.bytes)
			s.cfg.logf("serve: recovered open stream %s at chunk %d (%d bytes)", name, st.chunks, st.bytes)
		}
		s.streams[name] = st
	}
	// Deterministic queue order after a restart.
	sort.Slice(s.queue, func(i, j int) bool { return s.queue[i].name < s.queue[j].name })
	return nil
}

// HelloInfo is the server's answer to a stream Hello.
type HelloInfo struct {
	// Next is the first ordinal the server has not acked — where an
	// interrupted upload resumes.
	Next uint32 `json:"next"`
	// State is the stream's lifecycle state (StateOpen..StateShed).
	State string `json:"state"`
}

// Hello opens a new stream or reattaches to an existing one. It first
// plans the campaign Finish will save, so metadata the planner refuses
// fails here, before any chunk is spooled. For a new name it admits
// against MaxStreams and creates the durable layout; for an existing
// name it reports the state and resume point.
func (s *Service) Hello(meta StreamMeta) (HelloInfo, error) {
	if err := validStreamName(meta.Name); err != nil {
		return HelloInfo{}, &ProtocolError{Msg: err.Error()}
	}
	if _, err := campaignSpec(meta, filepath.Join(s.streamDir(meta.Name), spoolFile)).Plan(); err != nil {
		return HelloInfo{}, &ProtocolError{Msg: err.Error()}
	}
	// An empty product list means what an absent one does, and the meta
	// record writes neither; nil is the one form, so the record reloads
	// as the meta it was written from.
	if len(meta.Products) == 0 {
		meta.Products = nil
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if st, ok := s.streams[meta.Name]; ok {
		st.mu.Lock()
		info := HelloInfo{Next: uint32(st.chunks), State: st.state}
		st.mu.Unlock()
		return info, nil
	}
	if s.draining || s.closed {
		return HelloInfo{}, &RejectError{Reason: "draining", RetryAfter: s.cfg.RetryAfter}
	}
	if s.openStreams() >= s.cfg.MaxStreams {
		return HelloInfo{}, &RejectError{Reason: "too many open streams", RetryAfter: s.cfg.RetryAfter}
	}

	dir := s.streamDir(meta.Name)
	if err := s.fs.MkdirAll(dir, 0o755); err != nil {
		return HelloInfo{}, fmt.Errorf("serve: %w", err)
	}
	if err := writeJSONFile(s.fs, filepath.Join(dir, metaFile), &meta); err != nil {
		return HelloInfo{}, err
	}
	spool, err := fsio.OpenAppendFS(s.fs, filepath.Join(dir, spoolFile))
	if err != nil {
		return HelloInfo{}, err
	}
	acks, err := fsio.OpenAppendFS(s.fs, filepath.Join(dir, ackFile))
	if err != nil {
		spool.Close()
		return HelloInfo{}, err
	}
	st := &stream{
		name: meta.Name, dir: dir, meta: meta, ledger: s.ledger, spoolAcct: &s.spoolBytes,
		state: StateOpen, spool: spool, acks: acks, lastActive: time.Now(),
	}
	s.streams[meta.Name] = st
	s.updateGauges()
	s.cfg.logf("serve: stream %s opened", meta.Name)
	return HelloInfo{Next: 0, State: StateOpen}, nil
}

// campaignSpec is the campaign a stream's Finish saves: its meta, with
// the spool as the one trace when spool is not empty, and an unset
// sensitivity as 0.6.
func campaignSpec(meta StreamMeta, spool string) *campaign.Spec {
	spec := &campaign.Spec{
		Name:        meta.Name,
		Seed:        meta.Seed,
		Quick:       meta.Quick,
		Products:    meta.Products,
		Evals:       meta.Evals,
		Sensitivity: meta.Sensitivity,
	}
	if spec.Sensitivity == 0 {
		spec.Sensitivity = 0.6
	}
	if spool != "" {
		spec.Traces = []string{spool}
	}
	return spec
}

// openStreams counts streams still uploading (open or finishing).
// Caller holds s.mu.
func (s *Service) openStreams() int {
	n := 0
	for _, st := range s.streams {
		st.mu.Lock()
		if st.state == StateOpen || st.state == StateFinishing {
			n++
		}
		st.mu.Unlock()
	}
	return n
}

// AcceptInfo is the server's answer to one data chunk.
type AcceptInfo struct {
	// Next is the ordinal the server expects after this chunk.
	Next uint32 `json:"next"`
	// Dup reports a re-acked retransmission.
	Dup bool `json:"dup,omitempty"`
}

// Accept ingests one chunk into the named stream. Durable before
// acked; every outcome books the chunk into exactly one ledger class:
// accepted → pending, retransmission → duplicate, refusal → rejected.
func (s *Service) Accept(name string, ord uint32, payload []byte) (AcceptInfo, error) {
	start := time.Now()
	s.mu.Lock()
	st, ok := s.streams[name]
	if !ok {
		s.mu.Unlock()
		return AcceptInfo{}, &ProtocolError{Msg: fmt.Sprintf("unknown stream %q (hello first)", name)}
	}
	if s.draining || s.closed {
		s.mu.Unlock()
		s.ledger.Reject(1)
		return AcceptInfo{}, &RejectError{Reason: "draining", RetryAfter: s.cfg.RetryAfter}
	}
	// Spool budget: pressure first sheds the longest-idle OTHER open
	// stream (its chunks move to shed.overload), then rejects. The check
	// is advisory (concurrent accepts may momentarily overshoot before
	// their adds land), but the balance itself is exact: accept books the
	// budget under st.mu, the same lock every shed subtracts under.
	if s.spoolBytes.Load()+int64(len(payload)) > s.cfg.MaxSpoolBytes {
		s.shedIdlestLocked(st)
		if s.spoolBytes.Load()+int64(len(payload)) > s.cfg.MaxSpoolBytes {
			s.mu.Unlock()
			s.ledger.Reject(1)
			return AcceptInfo{}, &RejectError{Reason: "spool budget exhausted", RetryAfter: s.cfg.RetryAfter}
		}
	}
	s.mu.Unlock()

	// Ledger class (pending or duplicate) and the spool budget are both
	// booked inside accept, under st.mu, so a concurrent shed always
	// sees — and reverses — exactly what was booked.
	next, dup, err := st.accept(ord, payload)
	if err != nil {
		s.ledger.Reject(1)
		return AcceptInfo{Next: next}, err
	}
	if s.cfg.Obs != nil {
		s.cfg.Obs.Histogram("serve.ack_ns", obs.ClockWall).ObserveDuration(time.Since(start))
	}
	return AcceptInfo{Next: next, Dup: dup}, nil
}

// shedIdlestLocked sheds the longest-idle open stream other than keep.
// StateFinishing streams are never victims: a finishing stream is
// inside some Finish call's unlocked validation window, where its spool
// is being read and its delivery committed — shedding it there would
// race the commit (and its budget is about to be released anyway).
// Caller holds s.mu.
func (s *Service) shedIdlestLocked(keep *stream) {
	var victim *stream
	var oldest time.Time
	for _, st := range s.streams {
		if st == keep {
			continue
		}
		st.mu.Lock()
		open := st.state == StateOpen
		last := st.lastActive
		st.mu.Unlock()
		if open && (victim == nil || last.Before(oldest)) {
			victim, oldest = st, last
		}
	}
	if victim != nil {
		s.shedLocked(victim, ShedOverload)
	}
}

// shedLocked drops an uploading stream: a tombstone records the reason
// and chunk count, then spool and ack journal are removed, and the
// ledger moves the chunks from pending to the reason's shed counter —
// atomically with the state flip, under st.mu, so no concurrent accept
// can slip a chunk between the classification and the state change.
//
// The tombstone is written BEFORE the removals — it is the shed's
// durable commit point. The old order (remove first) had a crash
// window that silently destroyed acked chunks: with the spool gone and
// no tombstone yet, recovery saw a mid-upload stream with zero valid
// acks and resumed it empty, losing every acked chunk with no
// accounting. With tombstone-first, a crash before it resumes the
// upload intact (nothing lost), and a crash after it replays as a shed
// with the leftovers removed by recovery. If the tombstone write
// itself fails, the data files are deliberately kept.
// Caller holds s.mu.
func (s *Service) shedLocked(st *stream, reason ShedReason) {
	st.mu.Lock()
	if st.state != StateOpen && st.state != StateFinishing {
		st.mu.Unlock()
		return
	}
	st.closeFiles()
	chunks, bytes := st.chunks, st.bytes
	st.state = StateShed
	st.reason = string(reason)
	s.ledger.Shed(reason, chunks)
	s.spoolBytes.Add(-bytes)
	st.mu.Unlock()

	if err := writeJSONFile(s.fs, st.path(shedFile), &shedRecord{Reason: reason, Chunks: chunks}); err != nil {
		s.cfg.logf("serve: writing shed tombstone for %s: %v (spool kept)", st.name, err)
	} else {
		s.fs.Remove(st.path(spoolFile))
		s.fs.Remove(st.path(ackFile))
	}
	s.updateGauges()
	s.cfg.logf("serve: stream %s shed (%s): %d chunks dropped", st.name, reason, chunks)
	go st.publish(Event{Kind: EventFailed, Payload: []byte("stream shed: " + string(reason))})
}

// Finish closes the named stream's upload, verifies the declared
// totals, validates the assembled spool as IDT2, and delivers the
// stream into the bounded evaluation queue. A full queue rejects with
// Retry-After — the chunks stay pending and durable, and the client
// retries Finish. Totals that disagree with the ack journal shed the
// stream (protocol); an unreadable spool sheds it (corrupt).
func (s *Service) Finish(name string, declChunks uint64, declBytes int64) error {
	s.mu.Lock()
	st, ok := s.streams[name]
	if !ok {
		s.mu.Unlock()
		return &ProtocolError{Msg: fmt.Sprintf("unknown stream %q", name)}
	}
	if s.draining || s.closed {
		s.mu.Unlock()
		return &RejectError{Reason: "draining", RetryAfter: s.cfg.RetryAfter}
	}

	st.mu.Lock()
	switch st.state {
	case StateOpen, StateFinishing:
		// StateFinishing means an earlier Finish attempt failed after
		// closing the upload (plan write error, queue-full retry after a
		// crash window): re-verify and redo the remaining steps.
	case StateQueued, StateRunning, StateDone:
		st.mu.Unlock()
		s.mu.Unlock()
		return nil // finish is idempotent once delivered
	default:
		state := st.state
		st.mu.Unlock()
		s.mu.Unlock()
		return &ProtocolError{Msg: fmt.Sprintf("stream %s is %s", name, state)}
	}
	if st.chunks != declChunks || st.bytes != declBytes {
		msg := fmt.Sprintf("stream %s: finish declared %d chunks / %d bytes, server acked %d / %d",
			name, declChunks, declBytes, st.chunks, st.bytes)
		st.mu.Unlock()
		s.shedLocked(st, ShedProtocol)
		s.mu.Unlock()
		return &ProtocolError{Msg: msg}
	}
	if st.chunks == 0 && !st.meta.Evals {
		st.mu.Unlock()
		s.mu.Unlock()
		return &ProtocolError{Msg: fmt.Sprintf("stream %s: empty stream with no evals requested", name)}
	}
	// Check the queue before committing the transition so a full queue
	// leaves the stream uploadable (or retryable) and the client's
	// chunks pending and durable.
	if len(s.queue) >= s.cfg.QueueDepth {
		st.mu.Unlock()
		s.mu.Unlock()
		return &RejectError{Reason: "evaluation queue full", RetryAfter: s.cfg.RetryAfter}
	}
	st.closeFiles()
	st.state = StateFinishing
	st.lastActive = time.Now()
	chunks, bytes := st.chunks, st.bytes
	st.mu.Unlock()
	s.mu.Unlock()

	// Validate the assembled spool end to end before promising an
	// evaluation: wire checksums guard transport, this guards assembly.
	if chunks > 0 {
		if err := validateSpool(st.path(spoolFile)); err != nil {
			s.mu.Lock()
			s.shedCorruptLocked(st, chunks, bytes)
			s.mu.Unlock()
			return &ProtocolError{Msg: fmt.Sprintf("stream %s: spool failed IDT2 validation: %v", name, err)}
		}
	}

	var spool string
	if chunks > 0 {
		spool = st.path(spoolFile)
	}
	if err := campaign.SavePlanFS(s.fs, st.path(campaignDir), campaignSpec(st.meta, spool)); err != nil {
		return fmt.Errorf("serve: planning campaign for %s: %w", name, err)
	}

	// Delivery commit. Re-take the locks and re-verify everything the
	// unlocked validation window could have invalidated: the stream may
	// have been shed (idle reaper) — delivering already-shed chunks would
	// double-book them — and concurrent Finishes may have filled the
	// queue, so the depth check at admission alone would let N callers
	// overshoot the bound by N-1. finish.json is written under s.mu so
	// the re-check and the durable commit are atomic against other
	// Finish calls; once it is durable, a restart re-queues the stream
	// and the chunks stay classified delivered.
	s.mu.Lock()
	st.mu.Lock()
	if st.state != StateFinishing {
		state := st.state
		st.mu.Unlock()
		s.mu.Unlock()
		return &ProtocolError{Msg: fmt.Sprintf("stream %s was %s at delivery", name, state)}
	}
	st.mu.Unlock()
	// Under s.mu the state can no longer change: every shed path runs
	// with s.mu held, and evaluation transitions only touch queued
	// streams — this one is not queued yet.
	if len(s.queue) >= s.cfg.QueueDepth {
		s.mu.Unlock()
		return &RejectError{Reason: "evaluation queue full", RetryAfter: s.cfg.RetryAfter}
	}
	if err := writeJSONFile(s.fs, st.path(finishFile), &finishRecord{Chunks: chunks, Bytes: bytes}); err != nil {
		s.mu.Unlock()
		return err
	}
	st.mu.Lock()
	st.state = StateQueued
	s.spoolBytes.Add(-bytes)
	st.mu.Unlock()
	s.queue = append(s.queue, st)
	s.ledger.Deliver(chunks)
	s.updateGauges()
	s.cond.Signal()
	s.mu.Unlock()
	s.cfg.logf("serve: stream %s delivered: %d chunks, %d bytes", name, chunks, bytes)
	return nil
}

// shedCorruptLocked tombstones a stream whose spool failed validation
// after its upload was already closed. Guarded by state like shedLocked:
// if something else shed the stream during Finish's unlocked validation
// window, its chunks and budget are already booked and this is a no-op —
// without the guard the same chunks would be shed twice and the budget
// subtracted twice. Caller holds s.mu.
func (s *Service) shedCorruptLocked(st *stream, chunks uint64, bytes int64) {
	st.mu.Lock()
	if st.state != StateOpen && st.state != StateFinishing {
		st.mu.Unlock()
		return
	}
	st.state = StateShed
	st.reason = string(ShedCorrupt)
	s.ledger.Shed(ShedCorrupt, chunks)
	s.spoolBytes.Add(-bytes)
	st.mu.Unlock()
	// Tombstone first, removals second — same commit discipline and
	// same crash-window reasoning as shedLocked.
	if err := writeJSONFile(s.fs, st.path(shedFile), &shedRecord{Reason: ShedCorrupt, Chunks: chunks}); err != nil {
		s.cfg.logf("serve: writing shed tombstone for %s: %v (spool kept)", st.name, err)
	} else {
		s.fs.Remove(st.path(spoolFile))
		s.fs.Remove(st.path(ackFile))
	}
	s.updateGauges()
	go st.publish(Event{Kind: EventFailed, Payload: []byte("stream shed: " + string(ShedCorrupt))})
}

// validateSpool fully decodes the spool as an IDT2 stream. Each chunk
// goes back to the reader once decoded, so its buffers decode the next.
func validateSpool(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	rd, err := trace.NewReader(f)
	if err != nil {
		return err
	}
	for {
		c, err := rd.Next()
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		c.Release()
	}
}

// worker drains the evaluation queue until the service closes. Workers
// stop picking up new streams while draining; queued streams persist on
// disk and resume after restart.
func (s *Service) worker() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		for len(s.queue) == 0 && !s.closed && !s.draining {
			s.cond.Wait()
		}
		if s.closed || s.draining {
			s.mu.Unlock()
			return
		}
		st := s.queue[0]
		s.queue = s.queue[1:]
		s.inflight++
		s.updateGauges()
		s.mu.Unlock()

		s.evaluate(st)

		s.mu.Lock()
		s.inflight--
		s.cond.Broadcast() // wake Drain waiters
		s.mu.Unlock()
	}
}

// evaluate runs one stream's campaign to completion, streaming
// incremental Result events from the runner's commit hook and ending
// the feed with the rendered scorecard. Cancellation (drain or close)
// re-queues the stream logically: its finish.json re-enters the queue
// on the next Open, and the campaign journal resumes where it stopped.
func (s *Service) evaluate(st *stream) {
	st.mu.Lock()
	st.state = StateRunning
	st.mu.Unlock()
	s.updateGaugesLocked()
	s.cfg.logf("serve: stream %s evaluating", st.name)

	runner := &campaign.Runner{
		Dir:          st.path(campaignDir),
		FS:           s.fs,
		Workers:      1,
		MaxAttempts:  s.cfg.MaxAttempts,
		Backoff:      s.cfg.Backoff,
		StallTimeout: s.cfg.StallTimeout,
		Obs:          s.cfg.Obs,
		Log:          s.cfg.Log,
		OnCommit: func(ex campaign.Experiment, res *campaign.Result) {
			st.publish(Event{Kind: EventResult, Payload: resultEvent(ex, res)})
		},
	}
	_, err := runner.Run(s.runCtx)
	if s.runCtx.Err() != nil {
		// Shutdown, not verdict: back to queued for the next process.
		st.mu.Lock()
		st.state = StateQueued
		st.mu.Unlock()
		return
	}
	if err != nil {
		st.mu.Lock()
		chunks := st.chunks
		st.state = StateFailed
		st.reason = err.Error()
		st.mu.Unlock()
		if werr := writeJSONFile(s.fs, st.path(failedFile), &failRecord{Error: err.Error(), Chunks: chunks}); werr != nil {
			s.cfg.logf("serve: writing failure record for %s: %v", st.name, werr)
		}
		s.countObs("serve.streams.failed")
		s.updateGaugesLocked()
		s.cfg.logf("serve: stream %s failed: %v", st.name, err)
		st.publish(Event{Kind: EventFailed, Payload: []byte(err.Error())})
		return
	}

	card, rerr := renderScorecard(st.path(campaignDir))
	if rerr != nil {
		st.mu.Lock()
		st.state = StateFailed
		st.reason = rerr.Error()
		st.mu.Unlock()
		s.countObs("serve.streams.failed")
		st.publish(Event{Kind: EventFailed, Payload: []byte(rerr.Error())})
		return
	}
	if err := fsio.WriteAtomicFS(s.fs, st.path(scorecardFile), func(w io.Writer) error {
		_, werr := w.Write(card)
		return werr
	}); err != nil {
		st.mu.Lock()
		st.state = StateFailed
		st.reason = err.Error()
		st.mu.Unlock()
		st.publish(Event{Kind: EventFailed, Payload: []byte(err.Error())})
		return
	}
	st.mu.Lock()
	st.state = StateDone
	st.mu.Unlock()
	s.countObs("serve.streams.done")
	s.updateGaugesLocked()
	s.cfg.logf("serve: stream %s done", st.name)
	st.publish(Event{Kind: EventScorecard, Payload: card})
	st.publish(Event{Kind: EventComplete})
}

// renderScorecard renders the campaign report purely from the plan and
// persisted results — the path that makes interrupted-and-resumed
// scorecards byte-identical to uninterrupted ones.
func renderScorecard(dir string) ([]byte, error) {
	state, err := campaign.Load(dir)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := report.CampaignReport(&buf, state, core.StandardRegistry()); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// reaper enforces the per-stream idle deadline: open streams that
// stopped sending — and finishing streams whose client never retried a
// rejected delivery — are shed (reason idle) so abandoned uploads
// cannot hold spool budget forever. A reaped finishing stream cannot
// corrupt an in-flight Finish: its delivery commit re-checks the state
// under both locks and refuses to deliver shed chunks.
func (s *Service) reaper() {
	defer s.wg.Done()
	tick := time.NewTicker(s.cfg.IdleExpiry / 4)
	defer tick.Stop()
	for {
		select {
		case <-s.runCtx.Done():
			return
		case <-tick.C:
			deadline := time.Now().Add(-s.cfg.IdleExpiry)
			s.mu.Lock()
			for _, st := range s.streams {
				st.mu.Lock()
				expired := (st.state == StateOpen || st.state == StateFinishing) &&
					st.lastActive.Before(deadline)
				st.mu.Unlock()
				if expired {
					s.shedLocked(st, ShedIdle)
				}
			}
			s.mu.Unlock()
		}
	}
}

// Drain stops accepting work and waits for in-flight evaluations to
// finish, bounded by ctx: on expiry the evaluations are cancelled hard
// (their campaign journals stay consistent and they resume on the next
// Open). Always leaves the service closed.
func (s *Service) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.cfg.logf("serve: draining")

	done := make(chan struct{})
	go func() {
		defer close(done)
		s.mu.Lock()
		for s.inflight > 0 {
			s.cond.Wait()
		}
		s.mu.Unlock()
	}()
	var derr error
	select {
	case <-done:
	case <-ctx.Done():
		derr = fmt.Errorf("serve: drain deadline: %d evaluations cancelled (they resume on restart)", s.Inflight())
	}
	s.Close()
	return derr
}

// Inflight returns the number of evaluations currently running.
func (s *Service) Inflight() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inflight
}

// Close cancels everything and releases file handles. The on-disk
// state is always consistent — Close at any instant is equivalent to a
// crash, by construction.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()
	s.runCancel()
	s.wg.Wait()
	s.mu.Lock()
	for _, st := range s.streams {
		st.mu.Lock()
		st.closeFiles()
		st.mu.Unlock()
	}
	s.mu.Unlock()
}

// Health implements the httpexport health contract: draining beats
// everything; saturation (full queue, full stream table) or any shed
// within the trailing window reports degraded.
func (s *Service) Health() string {
	s.mu.Lock()
	draining := s.draining || s.closed
	queueFull := len(s.queue) >= s.cfg.QueueDepth
	tableFull := s.openStreams() >= s.cfg.MaxStreams
	s.mu.Unlock()
	switch {
	case draining:
		return httpexport.HealthDraining
	case queueFull || tableFull || s.ledger.ShedRecent(shedWindow) > 0:
		return httpexport.HealthDegraded
	default:
		return httpexport.HealthOK
	}
}

// Counts snapshots the chunk ledger.
func (s *Service) Counts() Counts { return s.ledger.Counts() }

// Streams lists every known stream's status, sorted by name.
func (s *Service) Streams() []StreamStatus {
	s.mu.Lock()
	sts := make([]*stream, 0, len(s.streams))
	for _, st := range s.streams {
		sts = append(sts, st)
	}
	s.mu.Unlock()
	out := make([]StreamStatus, 0, len(sts))
	for _, st := range sts {
		out = append(out, st.status())
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Status returns one stream's status.
func (s *Service) Status(name string) (StreamStatus, bool) {
	s.mu.Lock()
	st, ok := s.streams[name]
	s.mu.Unlock()
	if !ok {
		return StreamStatus{}, false
	}
	return st.status(), true
}

// Scorecard returns a done stream's rendered scorecard.
func (s *Service) Scorecard(name string) ([]byte, error) {
	s.mu.Lock()
	st, ok := s.streams[name]
	s.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("serve: unknown stream %q", name)
	}
	status := st.status()
	if status.State != StateDone {
		return nil, fmt.Errorf("serve: stream %q is %s, scorecard not ready", name, status.State)
	}
	return s.fs.ReadFile(st.path(scorecardFile))
}

// Subscribe attaches to a stream's result feed: the returned history
// replays everything published so far; ch (nil when the feed already
// ended) delivers live events until a terminal one closes it.
func (s *Service) Subscribe(name string) (history []Event, ch chan Event, cancel func(), err error) {
	s.mu.Lock()
	st, ok := s.streams[name]
	s.mu.Unlock()
	if !ok {
		return nil, nil, nil, fmt.Errorf("serve: unknown stream %q", name)
	}
	history, ch, cancel = st.subscribe(s.fs)
	return history, ch, cancel, nil
}

// Progress is the /progress payload: ledger counts plus per-stream
// status.
func (s *Service) Progress() any {
	return struct {
		Counts  Counts         `json:"counts"`
		Streams []StreamStatus `json:"streams"`
	}{s.Counts(), s.Streams()}
}

// Snapshot is the daemon's live /metrics feed: the service registry,
// which carries each evaluating stream's telemetry under
// eval.<Product>. as it runs (campaign.Runner.Obs).
func (s *Service) Snapshot() *obs.Snapshot {
	m := s.cfg.Obs.Snapshot()
	if m == nil {
		m = &obs.Snapshot{}
	}
	// The storage layer's own health counters — dirsync errors, append
	// repairs — ride along so a degrading disk shows up on /metrics.
	m.Merge(obs.FSIOSnapshot())
	return m
}

func (s *Service) countObs(name string) {
	if s.cfg.Obs != nil {
		s.cfg.Obs.Counter(name).Inc()
	}
}

// updateGauges refreshes the stream/queue gauges. Caller holds s.mu.
func (s *Service) updateGauges() {
	if s.cfg.Obs == nil {
		return
	}
	s.cfg.Obs.Gauge("serve.queue.depth").Set(int64(len(s.queue)))
	s.cfg.Obs.Gauge("serve.streams.open").Set(int64(s.openStreams()))
	s.cfg.Obs.Gauge("serve.evals.inflight").Set(int64(s.inflight))
}

// updateGaugesLocked is updateGauges for callers not holding s.mu.
func (s *Service) updateGaugesLocked() {
	s.mu.Lock()
	s.updateGauges()
	s.mu.Unlock()
}

// resultEvent renders one committed experiment as the Result event
// payload: compact JSON summarizing the verdict without the scorecard
// blob.
func resultEvent(ex campaign.Experiment, res *campaign.Result) []byte {
	ev := struct {
		ID      string `json:"id"`
		Kind    string `json:"kind"`
		Product string `json:"product"`
	}{ex.ID, string(ex.Kind), ex.Product}
	b, err := json.Marshal(ev)
	if err != nil {
		return []byte(`{"id":` + fmt.Sprintf("%q", ex.ID) + `}`)
	}
	return b
}
