package fsio_test

// Error-path tests for the atomic-write protocol under an injecting
// filesystem: whatever single fault fires (ENOSPC at create, write,
// sync, or rename), the destination must be untouched — previous
// contents intact, no torn file, no stray temp visible at the final
// path — and the error must name the destination.

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/fsio"
	"repro/internal/fsio/faultfs"
)

func writeAttempt(fs fsio.FS, path string) error {
	return fsio.WriteAtomicFS(fs, path, func(w io.Writer) error {
		_, err := w.Write([]byte("new contents\n"))
		return err
	})
}

func TestWriteAtomicDestinationUntouchedOnFault(t *testing.T) {
	cases := []struct {
		name string
		rule faultfs.Rule
	}{
		{"enospc-at-create", faultfs.Rule{Op: faultfs.OpCreate, Err: syscall.ENOSPC}},
		{"enospc-at-write", faultfs.Rule{Op: faultfs.OpWrite, Err: syscall.ENOSPC}},
		{"eio-at-sync", faultfs.Rule{Op: faultfs.OpSync, Err: syscall.EIO}},
		{"enospc-at-rename", faultfs.Rule{Op: faultfs.OpRename, Err: syscall.ENOSPC}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "out.json")
			if err := os.WriteFile(path, []byte("old contents\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			ffs := faultfs.New(tc.rule)
			err := writeAttempt(ffs, path)
			if !errors.Is(err, tc.rule.Err) {
				t.Fatalf("err = %v, want %v", err, tc.rule.Err)
			}
			b, rerr := os.ReadFile(path)
			if rerr != nil || string(b) != "old contents\n" {
				t.Fatalf("destination disturbed: %q, %v", b, rerr)
			}
			ents, _ := os.ReadDir(dir)
			for _, e := range ents {
				if strings.Contains(e.Name(), ".tmp-") {
					t.Fatalf("stray temp file left behind: %s", e.Name())
				}
			}
			if ffs.Injected() != 1 {
				t.Fatalf("injected = %d, want 1", ffs.Injected())
			}
		})
	}
}

func TestCommitRenameErrorNamesDestination(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.json")
	ffs := faultfs.New(faultfs.Rule{Op: faultfs.OpRename, Err: syscall.EIO})
	err := writeAttempt(ffs, path)
	if err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("rename error must name the destination %s, got: %v", path, err)
	}
}

func TestCommitSyncDirFailureIsReported(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "report.json")
	ffs := faultfs.New(faultfs.Rule{Op: faultfs.OpSyncDir, Err: syscall.EIO})
	err := writeAttempt(ffs, path)
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("directory-sync failure must surface, got: %v", err)
	}
	// The rename did land — the caller is told so it can retry.
	if _, serr := os.Stat(path); serr != nil {
		t.Fatalf("destination should exist after rename: %v", serr)
	}
}

func TestAppendCloseSyncsLastBatchedWrite(t *testing.T) {
	// A write whose fsync lies, then Close: Close's own sync is honest
	// here, so the record must survive the crash.
	dir := t.TempDir()
	path := filepath.Join(dir, "j.log")
	ffs := faultfs.New(faultfs.Rule{Op: faultfs.OpSync, N: 1, SyncLie: true})
	af, err := fsio.OpenAppendFS(ffs, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := af.Append([]byte("rec\n")); err != nil {
		t.Fatalf("append with lying sync: %v", err)
	}
	if err := af.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	ffs.CrashNow()
	b, _ := os.ReadFile(path)
	if string(b) != "rec\n" {
		t.Fatalf("record lost despite Close's fsync: %q", b)
	}
}

func TestAppendPoisonedAfterFailedRepair(t *testing.T) {
	// Write fails AND the repair truncate fails: the file must be
	// poisoned so no later append can concatenate onto the fragment.
	dir := t.TempDir()
	path := filepath.Join(dir, "j.log")
	ffs := faultfs.New(
		faultfs.Rule{Op: faultfs.OpWrite, N: 2, ShortWrite: true},
		faultfs.Rule{Op: faultfs.OpTruncate, Err: syscall.EIO},
	)
	af, err := fsio.OpenAppendFS(ffs, path)
	if err != nil {
		t.Fatal(err)
	}
	if err := af.Append([]byte("good\n")); err != nil {
		t.Fatal(err)
	}
	if err := af.Append([]byte("torn-record\n")); err == nil {
		t.Fatal("append should fail")
	}
	if err := af.Append([]byte("next\n")); err == nil || !strings.Contains(err.Error(), "poisoned") {
		t.Fatalf("poisoned file must refuse appends, got: %v", err)
	}
}

// statEIO is a hostile disk whose Stat fails with EIO.
type statEIO struct{ *faultfs.FS }

func (statEIO) Stat(string) (fs.FileInfo, error) { return nil, syscall.EIO }

// TestOpenAppendStatFailureKeepsRecords pins the durable watermark: an
// append file whose size cannot be read must not open, because a
// watermark guessed at 0 lets the next failed append's repair truncate
// away every record already on disk.
func TestOpenAppendStatFailureKeepsRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.log")
	const records = "{\"id\":1}\n{\"id\":22}\n"
	if err := os.WriteFile(path, []byte(records), 0o644); err != nil {
		t.Fatal(err)
	}
	af, err := fsio.OpenAppendFS(statEIO{faultfs.New(faultfs.Rule{Op: faultfs.OpWrite, Err: syscall.ENOSPC})}, path)
	if err == nil {
		af.Append([]byte("{\"id\":3}\n")) // fails with ENOSPC and repairs
		af.Close()
		t.Error("opened an append file whose size could not be read")
	} else if !errors.Is(err, syscall.EIO) {
		t.Errorf("err = %v, want the Stat's EIO", err)
	}
	if b, _ := os.ReadFile(path); string(b) != records {
		t.Fatalf("records %q became %q", records, b)
	}
}
