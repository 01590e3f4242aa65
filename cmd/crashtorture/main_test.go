package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestCountAckLinesMatchesRecovery pins the matrix's oracle for the
// durable ack prefix to serve's recovery rule on the two journals where
// a line-splitting, summing count went wrong: a final ack that lacks its
// newline, and a length that overflows the running byte count.
func TestCountAckLinesMatchesRecovery(t *testing.T) {
	for _, c := range []struct {
		name    string
		journal string
		spool   int
		want    uint64
	}{
		{"unterminated final ack", `{"ord":0,"len":4}` + "\n" + `{"ord":1,"len":4}`, 8, 1},
		{"overflowing length", `{"ord":0,"len":10}` + "\n" + `{"ord":1,"len":9223372036854775807}` + "\n", 10, 1},
		{"covered acks", `{"ord":0,"len":4}` + "\n" + `{"ord":1,"len":4}` + "\n", 8, 2},
		{"out-of-order ordinal", `{"ord":0,"len":2}` + "\n" + `{"ord":2,"len":2}` + "\n", 4, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "trace.idt2"), bytes.Repeat([]byte{'x'}, c.spool), 0o644); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "acks.jsonl"), []byte(c.journal), 0o644); err != nil {
				t.Fatal(err)
			}
			if got := countAckLines(dir); got != c.want {
				t.Fatalf("countAckLines = %d, want %d", got, c.want)
			}
		})
	}
	if got := countAckLines(t.TempDir()); got != 0 {
		t.Fatalf("countAckLines of an empty stream dir = %d, want 0", got)
	}
}
