package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"

	"repro/internal/fsio"
)

// Entry is one journal line. The journal is append-only JSONL; the
// last entry for an ID wins on replay, so a failed experiment that
// later succeeds is simply journaled again.
//
// Only Status feeds the resume decision and only indirectly the report
// (done ⇒ load the result file). Attempts, errors, stacks, and wall
// times are bookkeeping for humans and tests — they never reach the
// report, which is what keeps resumed reports byte-identical.
type Entry struct {
	ID     string `json:"id"`
	Status Status `json:"status"`
	// Attempt is which attempt produced this entry (1-based).
	Attempt int `json:"attempt,omitempty"`
	// Error is the failure/timeout/panic message.
	Error string `json:"error,omitempty"`
	// Stack is the recovered goroutine stack of a panicked attempt.
	Stack string `json:"stack,omitempty"`
	// ElapsedMs is the attempt's wall-clock duration (diagnostics only).
	ElapsedMs int64 `json:"elapsed_ms,omitempty"`
}

// Status classifies a journal entry.
type Status string

const (
	// StatusDone commits an experiment: its result file is on disk.
	StatusDone Status = "done"
	// StatusFailed records an attempt that returned an error.
	StatusFailed Status = "failed"
	// StatusPanicked records an attempt that panicked (stack attached).
	StatusPanicked Status = "panicked"
	// StatusTimeout records an attempt the stall watchdog cancelled.
	StatusTimeout Status = "timeout"
)

// jsonMarshalLine renders one journal line: compact JSON + newline.
func jsonMarshalLine(e Entry) ([]byte, error) {
	b, err := json.Marshal(e)
	if err != nil {
		return nil, fmt.Errorf("campaign: encoding journal entry: %w", err)
	}
	return append(b, '\n'), nil
}

// journalFile is the journal's location inside a campaign directory.
func journalFile(dir string) string { return filepath.Join(dir, "journal.jsonl") }

// resultsDir holds one JSON result file per completed experiment.
func resultsDir(dir string) string { return filepath.Join(dir, "results") }

// resultFile maps an experiment ID to its result path. IDs contain
// slashes; flatten them so every result sits in one directory.
func resultFile(dir, id string) string {
	return filepath.Join(resultsDir(dir), strings.ReplaceAll(id, "/", "_")+".json")
}

// ReplayJournal reads the journal (absent ⇒ empty) without writing to
// it and returns the last entry per experiment ID plus the entry count
// of its valid prefix (fsio.ReplayLog): replay stops at the first line
// that lacks its newline or is neither blank nor an entry.
func ReplayJournal(dir string) (map[string]Entry, int, error) {
	last, lines := map[string]Entry{}, 0
	if _, _, err := fsio.ReplayLog(fsio.OS, journalFile(dir), keepEntry(last, &lines)); err != nil {
		return nil, 0, fmt.Errorf("campaign: %w", err)
	}
	return last, lines, nil
}

// keepEntry is the journal's line check: it keeps a blank line, and an
// entry line after recording it in last and counting it in lines.
func keepEntry(last map[string]Entry, lines *int) func([]byte) bool {
	return func(line []byte) bool {
		if len(bytes.TrimSpace(line)) == 0 {
			return true
		}
		var e Entry
		if json.Unmarshal(line, &e) != nil || e.ID == "" {
			return false
		}
		last[e.ID] = e
		*lines++
		return true
	}
}
