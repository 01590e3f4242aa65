package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fsio"
)

// FuzzRecoverAcks drives the recovery of a half-uploaded stream over
// arbitrary ack-journal bytes and spool lengths. The journal's own
// recovery rule is FuzzLog's (internal/fsio); here recovery must never
// fail on what it finds, must cut the spool to exactly the bytes the
// kept acks cover, and must change nothing when run again.
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
		chunks, n := reopenStream(t, dir)
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
		acks, err := os.ReadFile(ackPath)
		if err != nil {
			t.Fatal(err)
		}
		againChunks, againN := reopenStream(t, dir)
		again, err := os.ReadFile(ackPath)
		if err != nil {
			t.Fatal(err)
		}
		if againChunks != chunks || againN != n || !bytes.Equal(again, acks) {
			t.Fatalf("second recovery: %d chunks, %d bytes, journal %q; first %d, %d, %q",
				againChunks, againN, again, chunks, n, acks)
		}
	})
}

// reopenStream recovers the half-uploaded stream in dir and closes its
// files, returning the acked chunks and spool bytes.
func reopenStream(t *testing.T, dir string) (uint64, int64) {
	t.Helper()
	st := &stream{dir: dir}
	if err := st.reopen(fsio.OS); err != nil {
		t.Fatalf("recovering %s: %v", dir, err)
	}
	st.closeFiles()
	return st.chunks, st.bytes
}
