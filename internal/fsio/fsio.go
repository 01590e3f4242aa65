// Package fsio is the harness's crash-safe file I/O: atomic whole-file
// writes (temp file in the same directory, fsync, rename), durable
// appends, and the log (OpenLog) under the campaign journal and
// idsevald's ack journal. Every file the harness produces —
// checkpoint results, telemetry exports, CSV series, recorded traces —
// goes through this package so that a crash or kill at any instant
// leaves either the previous complete file or the new complete file,
// never a torn one.
//
// The contract, in POSIX terms: data reaches the temp file, the temp
// file is fsynced, then rename() replaces the destination atomically,
// then the directory is fsynced so the rename itself survives a crash.
// Readers that only ever open the final path can never observe a
// partial write.
//
// Every operation runs against an FS (see vfs.go): the default OS
// passthrough costs nothing, and fsio/faultfs substitutes a hostile
// disk so the crash-matrix tests can prove the recovery paths instead
// of presuming them. The package-level helpers (WriteAtomic, Create,
// OpenAppend) are OS-bound conveniences; the *FS variants take the
// seam explicitly.
package fsio

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"strings"
)

// WriteAtomic writes one file atomically via the passthrough OS
// filesystem. See WriteAtomicFS.
func WriteAtomic(path string, write func(w io.Writer) error) error {
	return WriteAtomicFS(OS, path, write)
}

// WriteAtomicFS writes one file atomically: write runs against a temp
// file created in path's directory; on success the temp file is synced
// and renamed over path. On any error the temp file is removed and
// path is untouched.
func WriteAtomicFS(fsys FS, path string, write func(w io.Writer) error) error {
	af, err := CreateFS(fsys, path)
	if err != nil {
		return err
	}
	if err := write(af); err != nil {
		af.Abort()
		return err
	}
	return af.Commit()
}

// CleanStrayTemps removes atomic-write temp files (".<name>.tmp-*")
// left behind in dir by a crash between CreateFS and Commit — the
// temp never threatens the destination, but it leaks disk across
// crashes. Recovery paths call this once per directory they own.
// Returns the number removed; a missing directory removes nothing.
func CleanStrayTemps(fsys FS, dir string) int {
	fsys = DefaultFS(fsys)
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return 0
	}
	removed := 0
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasPrefix(name, ".") || !strings.Contains(name, ".tmp-") {
			continue
		}
		if fsys.Remove(filepath.Join(dir, name)) == nil {
			removed++
		}
	}
	return removed
}

// AtomicFile is an in-progress atomic write for callers that need the
// file handle itself (streaming encoders). Write into it, then either
// Commit (sync + rename into place) or Abort (remove the temp file).
// An AtomicFile left neither committed nor aborted is just a stray
// .tmp file — the destination is never touched.
type AtomicFile struct {
	fs   FS
	f    File
	path string
	done bool
}

// Create starts an atomic write of path on the passthrough OS
// filesystem. See CreateFS.
func Create(path string) (*AtomicFile, error) { return CreateFS(OS, path) }

// CreateFS starts an atomic write of path on fsys. The temp file lives
// in the same directory so the final rename cannot cross filesystems.
func CreateFS(fsys FS, path string) (*AtomicFile, error) {
	abs, err := filepath.Abs(path)
	if err != nil {
		return nil, fmt.Errorf("fsio: %w", err)
	}
	f, err := fsys.CreateTemp(filepath.Dir(abs), "."+filepath.Base(abs)+".tmp-*")
	if err != nil {
		return nil, fmt.Errorf("fsio: %w", err)
	}
	return &AtomicFile{fs: fsys, f: f, path: abs}, nil
}

// Write implements io.Writer.
func (a *AtomicFile) Write(p []byte) (int, error) { return a.f.Write(p) }

// Name returns the temp file's path (diagnostics only; it disappears
// at Commit/Abort).
func (a *AtomicFile) Name() string { return a.f.Name() }

// Commit syncs the temp file and renames it over the destination,
// then syncs the directory so the rename is durable. Idempotent after
// success. On a sync, close, or rename failure the temp file is
// removed and the destination is untouched; a directory-sync failure
// after the rename is reported too (the destination then exists but
// its durability is not guaranteed — callers retry, the write is
// idempotent).
func (a *AtomicFile) Commit() error {
	if a.done {
		return nil
	}
	a.done = true
	tmp := a.f.Name()
	if err := a.f.Sync(); err != nil {
		a.f.Close()
		a.fs.Remove(tmp)
		return fmt.Errorf("fsio: sync %s (for %s): %w", tmp, a.path, err)
	}
	if err := a.f.Close(); err != nil {
		a.fs.Remove(tmp)
		return fmt.Errorf("fsio: close %s (for %s): %w", tmp, a.path, err)
	}
	if err := a.fs.Rename(tmp, a.path); err != nil {
		a.fs.Remove(tmp)
		return fmt.Errorf("fsio: rename into %s: %w", a.path, err)
	}
	if err := a.fs.SyncDir(filepath.Dir(a.path)); err != nil {
		return fmt.Errorf("fsio: %s committed but directory sync failed: %w", a.path, err)
	}
	return nil
}

// Abort discards the write, removing the temp file. Idempotent and
// safe after Commit (then a no-op).
func (a *AtomicFile) Abort() {
	if a.done {
		return
	}
	a.done = true
	tmp := a.f.Name()
	a.f.Close()
	a.fs.Remove(tmp)
}

// AppendFile is an append-only file whose writes are individually
// durable: each Append writes one buffer and fsyncs before returning.
// This is the logs' commit discipline — an experiment is "done", and a
// chunk acked, exactly when its line has reached the disk.
//
// A failed append repairs itself: the partial record (short write, or
// a full write whose fsync failed) is truncated away so the file ends
// at the last known-durable record boundary and the next append can
// never concatenate onto a torn fragment. If even the repair truncate
// fails the file is poisoned — every later Append refuses with the
// original error — because appending past an unremovable fragment
// would corrupt the journal for every future replay.
type AppendFile struct {
	f    File
	path string
	// good is the byte offset of the last record boundary known to be
	// durable: the file's size between calls, unless a repair failed.
	good   int64
	broken error
}

// OpenAppend opens (creating if absent) path for durable appends on
// the passthrough OS filesystem. See OpenAppendFS.
func OpenAppend(path string) (*AppendFile, error) { return OpenAppendFS(OS, path) }

// OpenAppendFS opens (creating if absent) path for durable appends on
// fsys.
func OpenAppendFS(fsys FS, path string) (*AppendFile, error) {
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, fmt.Errorf("fsio: %w", err)
	}
	// The size is the watermark a failed append repairs back to; a
	// guessed 0 would let that repair erase every record on disk.
	fi, err := fsys.Stat(path)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("fsio: %w", err)
	}
	return &AppendFile{f: f, path: path, good: fi.Size()}, nil
}

// Append writes p and fsyncs. On failure the file is truncated back to
// the previous record boundary (see the type comment) before the error
// is returned, so a failed append is invisible to the next one.
func (a *AppendFile) Append(p []byte) error {
	if a.broken != nil {
		return fmt.Errorf("fsio: append %s: file poisoned by earlier unrepaired failure: %w", a.path, a.broken)
	}
	n, err := a.f.Write(p)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	if err != nil {
		return a.repair(fmt.Errorf("fsio: append %s: wrote %d of %d bytes: %w", a.path, n, len(p), err))
	}
	if err := a.f.Sync(); err != nil {
		return a.repair(fmt.Errorf("fsio: sync %s: %w", a.path, err))
	}
	a.good += int64(n)
	return nil
}

// repair truncates back to the last durable record boundary after a
// failed append. If the truncate fails too, the file is poisoned.
func (a *AppendFile) repair(cause error) error {
	if terr := a.f.Truncate(a.good); terr != nil {
		a.broken = fmt.Errorf("%w (and truncate-repair to %d failed: %v)", cause, a.good, terr)
		return a.broken
	}
	noteAppendRepair()
	return cause
}

// Close fsyncs and closes the underlying file, which gives the last
// append of a clean shutdown one more fsync in case its own lied.
// Returns the first error; the close always runs.
func (a *AppendFile) Close() error {
	var serr error
	if a.broken == nil {
		if err := a.f.Sync(); err != nil {
			serr = fmt.Errorf("fsio: sync %s at close: %w", a.path, err)
		}
	}
	if cerr := a.f.Close(); cerr != nil && serr == nil {
		serr = cerr
	}
	return serr
}

// ReplayLog reads the newline-committed log at path without writing to
// it and hands each line of its valid prefix, without the newline, to
// keep, which must not retain it. The prefix ends at the first line
// that lacks its newline (a crash mid-append) or that keep refuses.
// ReplayLog returns the prefix's length and the file's; an absent file
// is an empty log.
func ReplayLog(fsys FS, path string, keep func(line []byte) bool) (valid, size int64, err error) {
	data, err := fsys.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, fmt.Errorf("fsio: %w", err)
	}
	for {
		i := bytes.IndexByte(data[valid:], '\n')
		if i < 0 || !keep(data[valid:valid+int64(i)]) {
			return valid, int64(len(data)), nil
		}
		valid += int64(i) + 1
	}
}

// OpenLog recovers the log at path and opens it for durable appends:
// it replays the valid prefix through keep (see ReplayLog), cuts the
// file after it so the next record starts a line of its own, and
// returns the appender with the number of bytes cut. The cut repeats
// work, since what a cut line recorded is done again, but loses no
// committed output. Refusing to open would not do: after a lying fsync
// a log can end in a complete line that keep must refuse.
func OpenLog(fsys FS, path string, keep func(line []byte) bool) (*AppendFile, int64, error) {
	valid, size, err := ReplayLog(fsys, path, keep)
	if err != nil {
		return nil, 0, err
	}
	if size > valid {
		if err := fsys.Truncate(path, valid); err != nil {
			return nil, 0, fmt.Errorf("fsio: cutting %s after its valid prefix: %w", path, err)
		}
	}
	a, err := OpenAppendFS(fsys, path)
	return a, size - valid, err
}
