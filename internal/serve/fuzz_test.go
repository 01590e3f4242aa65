package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fsio"
)

// FuzzRecoverAcks drives ack-journal recovery over arbitrary journal
// bytes and spool lengths. Recovery must never fail on what it finds:
// it cuts the journal back to a newline-terminated prefix of its input
// and the spool to the bytes that prefix acknowledges, and running it
// again on its own result changes nothing.
func FuzzRecoverAcks(f *testing.F) {
	for _, s := range []struct {
		journal  string
		spoolLen uint16
	}{
		// A length that overflows the running byte count.
		{`{"ord":0,"len":10}` + "\n" + `{"ord":1,"len":9223372036854775807}` + "\n", 10},
		// A torn final line.
		{`{"ord":0,"len":4}` + "\n" + `{"ord":1,"le`, 8},
		// An out-of-order ordinal.
		{`{"ord":0,"len":2}` + "\n" + `{"ord":2,"len":2}` + "\n", 4},
		// A line the spool's bytes do not cover.
		{`{"ord":0,"len":3}` + "\n" + `{"ord":1,"len":5}` + "\n", 6},
		// An empty journal over a non-empty spool.
		{``, 5},
	} {
		f.Add([]byte(s.journal), s.spoolLen)
	}
	f.Fuzz(func(t *testing.T, journal []byte, spoolLen uint16) {
		dir := t.TempDir()
		spoolPath, ackPath := filepath.Join(dir, spoolFile), filepath.Join(dir, ackFile)
		if err := os.WriteFile(spoolPath, bytes.Repeat([]byte{'x'}, int(spoolLen)), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(ackPath, journal, 0o644); err != nil {
			t.Fatal(err)
		}
		chunks, n, err := recoverAcks(fsio.OS, dir)
		if err != nil {
			t.Fatalf("recovering journal %q over a %d-byte spool: %v", journal, spoolLen, err)
		}
		left, err := os.ReadFile(ackPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(journal, left) || (len(left) > 0 && left[len(left)-1] != '\n') {
			t.Fatalf("journal %q recovered to %q, not a newline-terminated prefix", journal, left)
		}
		if n < 0 || n > int64(spoolLen) {
			t.Fatalf("recovered %d spool bytes of %d", n, spoolLen)
		}
		fi, err := os.Stat(spoolPath)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != n {
			t.Fatalf("spool left at %d bytes, recovery reported %d", fi.Size(), n)
		}
		againChunks, againN, err := recoverAcks(fsio.OS, dir)
		if err != nil || againChunks != chunks || againN != n {
			t.Fatalf("second recovery: (%d, %d, %v), first (%d, %d)", againChunks, againN, err, chunks, n)
		}
	})
}
