package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fsio"
)

// StreamMeta is the client-declared identity of a stream, sent in the
// Hello and persisted verbatim as the stream's meta.json.
type StreamMeta struct {
	// Name addresses the stream; it doubles as the directory name, so
	// the charset is restricted ([A-Za-z0-9._-], max 64).
	Name string `json:"name"`
	// Seed/Quick/Products/Evals/Sensitivity parameterize the campaign
	// spec the stream is evaluated under.
	Seed     int64    `json:"seed,omitempty"`
	Quick    bool     `json:"quick,omitempty"`
	Products []string `json:"products,omitempty"`
	Evals    bool     `json:"evals,omitempty"`
	// Sensitivity is the trace replay's detection setting. Its JSON
	// omits a zero, so over the wire zero means unset, and the stream's
	// campaign replays at 0.6.
	Sensitivity float64 `json:"sensitivity,omitempty"`
}

// UnmarshalJSON decodes a meta record. An empty product list means what
// an absent one does, and the record is written with neither, so it is
// held as nil, the one form: a record read back from what was written
// equals the record read.
func (m *StreamMeta) UnmarshalJSON(data []byte) error {
	type plain StreamMeta
	if err := json.Unmarshal(data, (*plain)(m)); err != nil {
		return err
	}
	if len(m.Products) == 0 {
		m.Products = nil
	}
	return nil
}

// Stream lifecycle states as reported by Status and the Hello ack.
const (
	StateOpen      = "open"      // accepting chunks
	StateFinishing = "finishing" // upload closed, delivery in progress
	StateQueued    = "queued"    // delivered, waiting for an eval worker
	StateRunning   = "running"   // under evaluation
	StateDone      = "done"      // scorecard rendered
	StateFailed    = "failed"    // evaluation failed permanently
	StateShed      = "shed"      // dropped before delivery (reason recorded)
)

// StreamStatus is the externally visible state of one stream.
type StreamStatus struct {
	Name   string `json:"name"`
	State  string `json:"state"`
	Chunks uint64 `json:"chunks"`
	Bytes  int64  `json:"bytes"`
	// Reason carries the shed reason or the permanent failure message.
	Reason string `json:"reason,omitempty"`
}

// EventKind tags one entry of a stream's result feed.
type EventKind byte

const (
	// EventResult is one committed experiment (JSON payload), emitted
	// incrementally as the campaign journals commits.
	EventResult EventKind = iota + 1
	// EventScorecard carries the final rendered scorecard text.
	EventScorecard
	// EventComplete terminates a successful feed (empty payload).
	EventComplete
	// EventFailed terminates a failed or shed feed (message payload).
	EventFailed
)

// Event is one entry of a stream's result feed. Subscribers get the
// full history followed by live events; the feed ends at the first
// terminal event (Complete or Failed).
type Event struct {
	Kind    EventKind
	Payload []byte
}

func (e Event) terminal() bool { return e.Kind == EventComplete || e.Kind == EventFailed }

// stream is the in-memory handle for one stream directory. The mutex
// guards all mutable fields; the service takes it after its own lock
// (service.mu before stream.mu, never the reverse).
type stream struct {
	name   string
	dir    string
	meta   StreamMeta
	ledger *Ledger
	// spoolAcct points at the service's shared spool-budget balance;
	// accept adds to it in the same st.mu critical section that extends
	// st.bytes, so a shed (which subtracts st.bytes under the same lock)
	// always reverses exactly what accounting exists.
	spoolAcct *atomic.Int64

	mu         sync.Mutex
	state      string
	chunks     uint64 // accepted chunk count == next expected ordinal
	bytes      int64  // accepted payload bytes (== spool length)
	spool      *fsio.AppendFile
	acks       *fsio.AppendFile
	lastActive time.Time
	reason     string // shed reason or failure message

	events []Event
	subs   map[chan Event]struct{}
}

// Per-stream file names. The spool is always called trace.idt2 so the
// campaign experiment ID — derived from the artifact basename — is
// identical for every stream, which keeps scorecards comparable byte
// for byte across directories.
const (
	metaFile      = "meta.json"
	spoolFile     = "trace.idt2"
	ackFile       = "acks.jsonl"
	finishFile    = "finish.json"
	shedFile      = "shed.json"
	failedFile    = "failed.json"
	scorecardFile = "scorecard.txt"
	campaignDir   = "campaign"
)

func (st *stream) path(name string) string { return filepath.Join(st.dir, name) }

// validStreamName restricts names to a filesystem- and wire-safe
// charset. "." and ".." are excluded by construction (no empty names,
// and '.' alone or doubled still matches — so check explicitly).
func validStreamName(name string) error {
	if name == "" || len(name) > 64 {
		return fmt.Errorf("stream name must be 1-64 characters, got %d", len(name))
	}
	if name == "." || name == ".." {
		return fmt.Errorf("stream name %q is reserved", name)
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return fmt.Errorf("stream name %q: character %q not in [A-Za-z0-9._-]", name, r)
		}
	}
	return nil
}

// ackEntry is one line of the ack journal: chunk ordinal and payload
// length, appended (and fsynced) only after the payload itself reached
// the spool. The journal is the accept commit point.
type ackEntry struct {
	Ord uint32 `json:"ord"`
	Len int    `json:"len"`
}

// accept ingests one data chunk. Returns (next, dup): next is the
// ordinal the server expects after this call; dup reports a
// retransmission of an already-accepted ordinal (re-acked, not
// spooled). The ledger and the spool budget are booked while st.mu is
// held, so a concurrent shed — which also takes st.mu — always sees a
// chunk either fully in pending and the budget, or not submitted at
// all, never half-classified.
func (st *stream) accept(ord uint32, payload []byte) (next uint32, dup bool, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.state != StateOpen {
		return uint32(st.chunks), false, &ProtocolError{
			Msg: fmt.Sprintf("stream %s is %s, not accepting chunks", st.name, st.state)}
	}
	st.lastActive = time.Now()
	if uint64(ord) < st.chunks {
		st.ledger.Duplicate(1)
		return uint32(st.chunks), true, nil
	}
	if uint64(ord) > st.chunks {
		return uint32(st.chunks), false, &ProtocolError{
			Msg:  fmt.Sprintf("stream %s: chunk %d out of order, expected %d", st.name, ord, st.chunks),
			Next: uint32(st.chunks),
		}
	}
	// Spool first, journal second: the ack line is the commit point, so
	// a crash between the two leaves an un-journaled spool tail that
	// recovery truncates — never a journaled chunk without its bytes.
	if err := st.spool.Append(payload); err != nil {
		return uint32(st.chunks), false, err
	}
	line, err := json.Marshal(ackEntry{Ord: ord, Len: len(payload)})
	if err != nil {
		return uint32(st.chunks), false, err
	}
	if err := st.acks.Append(append(line, '\n')); err != nil {
		return uint32(st.chunks), false, err
	}
	st.chunks++
	st.bytes += int64(len(payload))
	st.ledger.Accept(1)
	st.spoolAcct.Add(int64(len(payload)))
	return uint32(st.chunks), false, nil
}

// closeFiles closes the spool and ack journal handles (idempotent).
func (st *stream) closeFiles() {
	if st.spool != nil {
		st.spool.Close()
		st.spool = nil
	}
	if st.acks != nil {
		st.acks.Close()
		st.acks = nil
	}
}

// publish appends ev to the history and fans it out. A terminal event
// closes every subscriber channel. Callers must NOT hold st.mu.
func (st *stream) publish(ev Event) {
	st.mu.Lock()
	st.events = append(st.events, ev)
	for ch := range st.subs {
		select {
		case ch <- ev:
		default:
			// Slow consumer: drop it rather than block the evaluator.
			// The subscriber sees a closed channel and can re-subscribe
			// (history replay makes that lossless).
			close(ch)
			delete(st.subs, ch)
		}
	}
	if ev.terminal() {
		for ch := range st.subs {
			close(ch)
		}
		st.subs = nil
	}
	st.mu.Unlock()
}

// subscribe returns the event history so far plus a live channel (nil
// when the feed already ended — the history then contains the terminal
// event). A done stream recovered from disk replays its scorecard from
// fsys; when that read fails its feed ends in EventFailed naming the
// error. cancel detaches; safe to call multiple times.
func (st *stream) subscribe(fsys fsio.FS) (history []Event, ch chan Event, cancel func()) {
	st.mu.Lock()
	defer st.mu.Unlock()
	history = append([]Event(nil), st.events...)
	// Synthesize the terminal event for streams recovered from disk in
	// a terminal state with no in-memory history.
	if len(history) == 0 || !history[len(history)-1].terminal() {
		switch st.state {
		case StateDone:
			if card, err := fsys.ReadFile(st.path(scorecardFile)); err != nil {
				history = append(history, Event{Kind: EventFailed, Payload: []byte("reading scorecard: " + err.Error())})
			} else {
				history = append(history, Event{Kind: EventScorecard, Payload: card}, Event{Kind: EventComplete})
			}
		case StateFailed:
			history = append(history, Event{Kind: EventFailed, Payload: []byte(st.reason)})
		case StateShed:
			history = append(history, Event{Kind: EventFailed, Payload: []byte("stream shed: " + st.reason)})
		}
	}
	if len(history) > 0 && history[len(history)-1].terminal() {
		return history, nil, func() {}
	}
	ch = make(chan Event, 256)
	if st.subs == nil {
		st.subs = map[chan Event]struct{}{}
	}
	st.subs[ch] = struct{}{}
	var once sync.Once
	cancel = func() {
		once.Do(func() {
			st.mu.Lock()
			if _, ok := st.subs[ch]; ok {
				delete(st.subs, ch)
				close(ch)
			}
			st.mu.Unlock()
		})
	}
	return history, ch, cancel
}

func (st *stream) status() StreamStatus {
	st.mu.Lock()
	defer st.mu.Unlock()
	return StreamStatus{
		Name: st.name, State: st.state, Chunks: st.chunks, Bytes: st.bytes, Reason: st.reason,
	}
}

// finishRecord is finish.json: the declared-and-verified totals,
// written atomically at delivery. Its presence marks the stream's
// chunks as delivered across restarts.
type finishRecord struct {
	Chunks uint64 `json:"chunks"`
	Bytes  int64  `json:"bytes"`
}

// shedRecord is shed.json: the tombstone for a shed stream, keeping
// the name reserved and the accounting replayable across restarts.
type shedRecord struct {
	Reason ShedReason `json:"reason"`
	Chunks uint64     `json:"chunks"`
}

// failRecord is failed.json for permanent evaluation failures.
type failRecord struct {
	Error  string `json:"error"`
	Chunks uint64 `json:"chunks"`
}

func writeJSONFile(fsys fsio.FS, path string, v any) error {
	return fsio.WriteAtomicFS(fsys, path, func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(v)
	})
}

// readRecord reports whether path holds a state record and decodes it
// into v (nil: only whether the file exists). A missing file is absent,
// and so is a record that does not parse, which a lying fsync can leave
// at a final path; any other read error is returned.
func readRecord(fsys fsio.FS, path string, v any) (bool, error) {
	var data []byte
	var err error
	if v == nil {
		_, err = fsys.Stat(path)
	} else {
		data, err = fsys.ReadFile(path)
	}
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	return err == nil && (v == nil || json.Unmarshal(data, v) == nil), err
}

// reopen recovers a half-uploaded stream and opens its spool and ack
// journal for appends. The ack journal is an fsio log whose lines must
// run in order from ordinal 0 and be covered by spooled bytes: its
// valid prefix is the stream's acked chunks, and the spool is cut to
// the bytes they cover, since a crash between the two fsyncs leaves it
// ahead of the journal. Missing files mean an empty stream.
func (st *stream) reopen(fsys fsio.FS) error {
	var spoolSize int64
	if fi, err := fsys.Stat(st.path(spoolFile)); err == nil {
		spoolSize = fi.Size()
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	acks, _, err := fsio.OpenLog(fsys, st.path(ackFile), func(line []byte) bool {
		var e ackEntry
		// Compare against the spool bytes left rather than summing: a
		// huge journaled length would overflow the sum.
		if json.Unmarshal(line, &e) != nil || uint64(e.Ord) != st.chunks ||
			e.Len < 0 || int64(e.Len) > spoolSize-st.bytes {
			return false
		}
		st.chunks++
		st.bytes += int64(e.Len)
		return true
	})
	if err != nil {
		return err
	}
	if st.bytes < spoolSize {
		if err := fsys.Truncate(st.path(spoolFile), st.bytes); err != nil {
			acks.Close()
			return fmt.Errorf("cutting the spool after its acked bytes: %w", err)
		}
	}
	spool, err := fsio.OpenAppendFS(fsys, st.path(spoolFile))
	if err != nil {
		acks.Close()
		return err
	}
	st.spool, st.acks = spool, acks
	return nil
}
