package fsio

import (
	"fmt"
	"io/fs"
	"os"
)

// File is the writable-handle half of the storage seam: everything the
// durability protocols do to an open file. *os.File satisfies it
// directly, so the passthrough filesystem hands out real handles with
// no wrapper allocation.
type File interface {
	Write(p []byte) (int, error)
	// Sync flushes the file to stable storage (fsync).
	Sync() error
	// Truncate cuts the file to size — the append-repair path uses it
	// to amputate a partial record after a failed write.
	Truncate(size int64) error
	Close() error
	// Name returns the path the file was opened under (diagnostics).
	Name() string
}

// FS is the storage seam every durability-bearing write in the harness
// goes through: atomic whole-file writes, durable appends, renames,
// truncates, and directory syncs. The default implementation (OS) is a
// zero-cost passthrough to the os package; fault-injecting
// implementations (fsio/faultfs) substitute hostile disks — ENOSPC at
// the Nth write, fsyncs that lie, crash-stop at any commit point — so
// every recovery path can be exercised deterministically.
//
// Read-side methods (Stat, ReadFile, ReadDir) are included so recovery
// code observes the same filesystem its writes went to.
type FS interface {
	// CreateTemp creates a new exclusive temp file in dir
	// (os.CreateTemp pattern semantics).
	CreateTemp(dir, pattern string) (File, error)
	// OpenAppend opens path O_CREATE|O_WRONLY|O_APPEND.
	OpenAppend(path string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	RemoveAll(path string) error
	Truncate(path string, size int64) error
	MkdirAll(path string, perm fs.FileMode) error
	Stat(path string) (fs.FileInfo, error)
	ReadFile(path string) ([]byte, error)
	ReadDir(path string) ([]fs.DirEntry, error)
	// SyncDir fsyncs a directory so a completed rename or create inside
	// it survives a crash. The passthrough tolerates filesystems that
	// refuse directory fsync (counted + logged once per directory, see
	// ReadStats); injecting filesystems may return real errors.
	SyncDir(dir string) error
}

// OS is the passthrough filesystem: every method delegates straight to
// the os package. It is the default everywhere an FS is optional, and
// it adds nothing to the hot append path — OpenAppend returns the
// *os.File itself.
var OS FS = osFS{}

// DefaultFS returns f, or OS when f is nil — the idiom for optional FS
// fields on Config/Runner structs.
func DefaultFS(f FS) FS {
	if f == nil {
		return OS
	}
	return f
}

type osFS struct{}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) OpenAppend(path string) (File, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (osFS) Remove(path string) error                   { return os.Remove(path) }
func (osFS) RemoveAll(path string) error                { return os.RemoveAll(path) }
func (osFS) Truncate(path string, size int64) error     { return os.Truncate(path, size) }
func (osFS) MkdirAll(path string, p fs.FileMode) error  { return os.MkdirAll(path, p) }
func (osFS) Stat(path string) (fs.FileInfo, error)      { return os.Stat(path) }
func (osFS) ReadFile(path string) ([]byte, error)       { return os.ReadFile(path) }
func (osFS) ReadDir(path string) ([]fs.DirEntry, error) { return os.ReadDir(path) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("fsio: %w", err)
	}
	defer d.Close()
	// Filesystems without directory fsync support are tolerated — the
	// rename is still atomic there — but no longer silently: the error
	// is counted (fsio.dirsync_errors on /metrics) and logged once per
	// directory, so a degraded filesystem is visible.
	if serr := d.Sync(); serr != nil {
		noteDirSyncError(dir, serr)
	}
	return nil
}
