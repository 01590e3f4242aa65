package campaign

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
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

// ReplayJournal reads the journal (absent ⇒ empty) and returns the
// last entry per experiment ID plus the total line count. A line is
// committed with its newline: bytes after the last newline — the
// signature of a kill mid-append — are a torn final line, ignored even
// when they parse; an unparseable line before it is corruption and
// errors.
func ReplayJournal(dir string) (map[string]Entry, int, error) {
	last, lines, _, err := replayJournal(fsio.OS, dir)
	return last, lines, err
}

// replayJournal additionally returns the byte length of the journal's
// valid prefix. When the file is longer than that prefix, the tail is
// a torn final append: before reopening the journal for append the
// runner truncates to the valid length, otherwise the next line would
// concatenate onto the torn fragment and corrupt the journal for the
// replay after this one.
func replayJournal(fsys fsio.FS, dir string) (map[string]Entry, int, int64, error) {
	data, err := fsys.ReadFile(journalFile(dir))
	if os.IsNotExist(err) {
		return map[string]Entry{}, 0, 0, nil
	}
	if err != nil {
		return nil, 0, 0, fmt.Errorf("campaign: %w", err)
	}

	last := map[string]Entry{}
	lines, offset := 0, 0
	for {
		// A torn last append has no newline. Kept, it would be joined by
		// the next append into one unparseable line, so it is left out
		// of the valid prefix even when its bytes happen to parse.
		i := bytes.IndexByte(data[offset:], '\n')
		if i < 0 {
			break
		}
		raw := data[offset : offset+i]
		offset += i + 1
		if len(bytes.TrimSpace(raw)) == 0 {
			continue
		}
		var e Entry
		if err := json.Unmarshal(raw, &e); err != nil || e.ID == "" {
			return nil, 0, 0, fmt.Errorf("campaign: journal %s: torn line %d is not final — journal corrupt", journalFile(dir), lines+1)
		}
		last[e.ID] = e
		lines++
	}
	return last, lines, int64(offset), nil
}
