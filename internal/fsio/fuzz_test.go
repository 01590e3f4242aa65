package fsio

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLog drives the log's recovery over arbitrary bytes, with a keep
// that refuses every line holding the byte stop. The valid prefix must
// be empty or end in a newline and replay alone to itself; OpenLog must
// leave exactly that prefix on disk, a second OpenLog must cut nothing,
// and a record appended after the prefix must replay as a line of its
// own.
func FuzzLog(f *testing.F) {
	for _, s := range []struct {
		log  string
		stop byte
	}{
		{"", 'x'},
		{"a\nb\n", 'x'},
		// A final line that lost only its newline.
		{"a\nb", 'x'},
		// A refused line before the tail.
		{"a\nxb\nc\n", 'x'},
		// Blank and CRLF lines; a newline stop refuses nothing.
		{"\n\r\n\n", '\n'},
		{"a\r\nb\r\n", '\r'},
	} {
		f.Add([]byte(s.log), s.stop)
	}
	f.Fuzz(func(t *testing.T, data []byte, stop byte) {
		keep := func(line []byte) bool { return bytes.IndexByte(line, stop) < 0 }
		dir := t.TempDir()
		path := filepath.Join(dir, "log")
		writeFile(t, path, data)
		valid, size, err := ReplayLog(OS, path, keep)
		if err != nil {
			t.Fatal(err)
		}
		if size != int64(len(data)) || valid < 0 || valid > size {
			t.Fatalf("%q replays to a %d-byte prefix of %d bytes", data, valid, size)
		}
		prefix := data[:valid]
		if valid > 0 && prefix[valid-1] != '\n' {
			t.Fatalf("%q has valid prefix %q, which does not end in a newline", data, prefix)
		}
		alone := filepath.Join(dir, "prefix")
		writeFile(t, alone, prefix)
		if again, _, err := ReplayLog(OS, alone, keep); err != nil || again != valid {
			t.Fatalf("prefix %q replays alone to %d bytes (err %v), want all %d", prefix, again, err, valid)
		}

		a, cut, err := OpenLog(OS, path, keep)
		if err != nil {
			t.Fatal(err)
		}
		a.Close()
		if cut != size-valid {
			t.Fatalf("OpenLog cut %d bytes of %q, want %d", cut, data, size-valid)
		}
		if got := readFile(t, path); !bytes.Equal(got, prefix) {
			t.Fatalf("OpenLog left %q of %q, want the prefix %q", got, data, prefix)
		}
		a, cut, err = OpenLog(OS, path, keep)
		if err != nil || cut != 0 {
			t.Fatalf("second OpenLog over %q cut %d bytes (err %v), want none", prefix, cut, err)
		}

		rec := []byte("r\n")
		if stop == 'r' {
			rec[0] = 's'
		}
		if err := a.Append(rec); err != nil {
			t.Fatal(err)
		}
		a.Close()
		var last []byte
		grown, size, err := ReplayLog(OS, path, func(line []byte) bool {
			last = append(last[:0], line...)
			return keep(line)
		})
		if err != nil || grown != size || grown != valid+int64(len(rec)) || !bytes.Equal(last, rec[:1]) {
			t.Fatalf("after appending %q to %q: prefix %d of %d bytes, last line %q (err %v)",
				rec, prefix, grown, size, last, err)
		}
	})
}

func writeFile(t *testing.T, path string, data []byte) {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
