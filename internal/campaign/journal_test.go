package campaign

import (
	"os"
	"path/filepath"
	"testing"
)

func writeJournal(t *testing.T, dir, content string) {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, "journal.jsonl"), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestReplayJournalLastEntryWins(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir,
		`{"id":"a","status":"failed","attempt":1,"error":"boom"}`+"\n"+
			`{"id":"b","status":"done","attempt":1}`+"\n"+
			`{"id":"a","status":"done","attempt":2}`+"\n")
	got, n, err := ReplayJournal(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("entries = %d, want 3", n)
	}
	if got["a"].Status != StatusDone || got["a"].Attempt != 2 {
		t.Fatalf("a = %+v, want done attempt 2", got["a"])
	}
	if got["b"].Status != StatusDone {
		t.Fatalf("b = %+v, want done", got["b"])
	}
}

func TestReplayJournalToleratesTornTail(t *testing.T) {
	dir := t.TempDir()
	// A kill -9 mid-append leaves a half-written final line.
	writeJournal(t, dir,
		`{"id":"a","status":"done"}`+"\n"+
			`{"id":"b","status":"do`)
	got, _, err := ReplayJournal(dir)
	if err != nil {
		t.Fatalf("torn tail should be tolerated: %v", err)
	}
	if got["a"].Status != StatusDone {
		t.Fatalf("a = %+v, want done", got["a"])
	}
	if _, ok := got["b"]; ok {
		t.Fatal("torn entry for b must not be replayed")
	}

	// A tear that takes only the newline leaves bytes that parse. The
	// line is still uncommitted: kept, the next append would join it.
	writeJournal(t, dir,
		`{"id":"a","status":"done"}`+"\n"+
			`{"id":"b","status":"done"}`)
	got, n, err := ReplayJournal(dir)
	if err != nil || n != 1 {
		t.Fatalf("newline-torn tail: %d entries, err %v; want 1 and no error", n, err)
	}
	if _, ok := got["b"]; ok {
		t.Fatal("an entry missing its newline must not be replayed")
	}
}

func TestReplayJournalRejectsTornMiddle(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir,
		`{"id":"a","status":"do`+"\n"+
			`{"id":"b","status":"done"}`+"\n")
	if _, _, err := ReplayJournal(dir); err == nil {
		t.Fatal("a torn non-final line is corruption and must error")
	}
}

func TestReplayJournalAbsentIsEmpty(t *testing.T) {
	got, n, err := ReplayJournal(t.TempDir())
	if err != nil || n != 0 || len(got) != 0 {
		t.Fatalf("absent journal: got %v entries=%d err=%v", got, n, err)
	}
}
