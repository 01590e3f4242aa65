package serve

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"time"

	"repro/internal/trace"
)

// Wire payloads for the ISF2 control frames. Everything is small JSON;
// the bulk path (Data frames) is raw bytes.
type helloAck struct {
	Next  uint32 `json:"next"`
	State string `json:"state"`
}

type ackInfo struct {
	Next uint32 `json:"next"`
}

type rejectInfo struct {
	Reason       string `json:"reason"`
	RetryAfterMs int64  `json:"retry_after_ms"`
}

type errorInfo struct {
	Error string `json:"error"`
	// Next, when nonzero, is the ordinal the server expects — the
	// client's resynchronization point after an ordering violation.
	Next uint32 `json:"next,omitempty"`
}

type finishReq struct {
	Chunks uint64 `json:"chunks"`
	Bytes  int64  `json:"bytes"`
}

// ServeTCP accepts stream connections on ln until the listener closes
// (the daemon closes it when its signal context cancels). Each
// connection is one stream dialogue: Hello, Data*, Finish, then the
// result feed streamed back until Complete.
func (s *Service) ServeTCP(ln net.Listener) error {
	for {
		conn, err := ln.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return fmt.Errorf("serve: accept: %w", err)
		}
		go s.handleConn(conn)
	}
}

// handleConn drives one connection. Single-goroutine by design: during
// ingest only the client talks, during the result feed only the server
// does, so no write lock is needed. Every read and write carries a
// ConnTimeout deadline — a stalled peer is disconnected, and its acked
// chunks stay durable for resume.
func (s *Service) handleConn(conn net.Conn) {
	defer conn.Close()
	fr := trace.NewFrameReader(bufio.NewReaderSize(conn, 64<<10), maxFrameBytes)
	fw := trace.NewFrameWriter(conn)

	writeFrame := func(typ byte, ord uint32, payload []byte) error {
		conn.SetWriteDeadline(time.Now().Add(s.cfg.ConnTimeout))
		return fw.Write(typ, ord, payload)
	}
	writeJSON := func(typ byte, ord uint32, v any) error {
		b, err := json.Marshal(v)
		if err != nil {
			return err
		}
		return writeFrame(typ, ord, b)
	}
	// sendErr maps a service error onto the wire: RejectError → Reject
	// frame (retryable), anything else → Error frame.
	sendErr := func(ord uint32, err error) {
		var re *RejectError
		var pe *ProtocolError
		switch {
		case errors.As(err, &re):
			writeJSON(trace.FrameReject, ord, rejectInfo{Reason: re.Reason, RetryAfterMs: re.RetryAfter.Milliseconds()})
		case errors.As(err, &pe):
			writeJSON(trace.FrameError, ord, errorInfo{Error: pe.Msg, Next: pe.Next})
		default:
			writeJSON(trace.FrameError, ord, errorInfo{Error: err.Error()})
		}
	}

	readFrame := func() (trace.Frame, error) {
		conn.SetReadDeadline(time.Now().Add(s.cfg.ConnTimeout))
		return fr.Next()
	}

	// Dialogue opening: exactly one Hello.
	f, err := readFrame()
	if err != nil {
		return
	}
	if f.Type != trace.FrameHello {
		sendErr(f.Ordinal, &ProtocolError{Msg: "first frame must be Hello"})
		return
	}
	var meta StreamMeta
	if err := json.Unmarshal(f.Payload, &meta); err != nil {
		sendErr(f.Ordinal, &ProtocolError{Msg: "malformed hello metadata: " + err.Error()})
		return
	}
	info, err := s.Hello(meta)
	if err != nil {
		sendErr(f.Ordinal, err)
		return
	}
	if err := writeJSON(trace.FrameAck, f.Ordinal, helloAck{Next: info.Next, State: info.State}); err != nil {
		return
	}
	// Reattaching to a stream already past upload: jump straight to the
	// result feed.
	if info.State != StateOpen {
		s.streamEvents(conn, writeFrame, writeJSON, meta.Name)
		return
	}

	// Ingest loop: Data frames until Finish.
	for {
		f, err := readFrame()
		if err != nil {
			var de *trace.FrameDecodeError
			if errors.As(err, &de) {
				sendErr(de.Ordinal, &ProtocolError{Msg: de.Error()})
			}
			return
		}
		switch f.Type {
		case trace.FrameData:
			ai, aerr := s.Accept(meta.Name, f.Ordinal, f.Payload)
			if aerr != nil {
				sendErr(f.Ordinal, aerr)
				// Reject and ordering errors are recoverable in-stream;
				// anything else ends the connection.
				var re *RejectError
				var pe *ProtocolError
				if !errors.As(aerr, &re) && !errors.As(aerr, &pe) {
					return
				}
				continue
			}
			if err := writeJSON(trace.FrameAck, f.Ordinal, ackInfo{Next: ai.Next}); err != nil {
				return
			}
		case trace.FrameFinish:
			var req finishReq
			if err := json.Unmarshal(f.Payload, &req); err != nil {
				sendErr(f.Ordinal, &ProtocolError{Msg: "malformed finish: " + err.Error()})
				return
			}
			if ferr := s.Finish(meta.Name, req.Chunks, req.Bytes); ferr != nil {
				sendErr(f.Ordinal, ferr)
				var re *RejectError
				if errors.As(ferr, &re) {
					continue // queue full: client backs off and re-finishes
				}
				return
			}
			if err := writeJSON(trace.FrameAck, f.Ordinal, ackInfo{Next: uint32(req.Chunks)}); err != nil {
				return
			}
			s.streamEvents(conn, writeFrame, writeJSON, meta.Name)
			return
		default:
			sendErr(f.Ordinal, &ProtocolError{Msg: fmt.Sprintf("unexpected frame type %d during ingest", f.Type)})
			return
		}
	}
}

// streamEvents replays the stream's result feed onto the connection:
// history first, then live events until a terminal one. Result events
// become Result frames, the scorecard its own frame, and the feed ends
// with Complete (success) or Error (failure/shed).
func (s *Service) streamEvents(conn net.Conn,
	writeFrame func(byte, uint32, []byte) error,
	writeJSON func(byte, uint32, any) error, name string) {
	history, ch, cancel, err := s.Subscribe(name)
	if err != nil {
		writeJSON(trace.FrameError, 0, errorInfo{Error: err.Error()})
		return
	}
	defer cancel()
	var seq uint32
	emit := func(ev Event) bool {
		defer func() { seq++ }()
		switch ev.Kind {
		case EventResult:
			return writeFrame(trace.FrameResult, seq, ev.Payload) == nil
		case EventScorecard:
			return writeFrame(trace.FrameScorecard, seq, ev.Payload) == nil
		case EventComplete:
			writeFrame(trace.FrameComplete, seq, nil)
			return false
		case EventFailed:
			writeJSON(trace.FrameError, seq, errorInfo{Error: string(ev.Payload)})
			return false
		}
		return true
	}
	for _, ev := range history {
		if !emit(ev) {
			return
		}
	}
	if ch == nil {
		return
	}
	for {
		select {
		case ev, ok := <-ch:
			if !ok {
				// Feed dropped us (slow consumer) or the service is
				// closing; the client re-subscribes or polls HTTP.
				writeJSON(trace.FrameError, seq, errorInfo{Error: "event feed interrupted; re-subscribe"})
				return
			}
			if !emit(ev) {
				return
			}
		case <-s.runCtx.Done():
			writeJSON(trace.FrameError, seq, errorInfo{Error: "server shutting down; results resume after restart"})
			return
		}
	}
}
