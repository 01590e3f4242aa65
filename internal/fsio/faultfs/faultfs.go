// Package faultfs is a hostile disk: an fsio.FS that injects storage
// faults on a deterministic schedule and models crash-stop power loss.
//
// The durability model is write-through with a truncate-to-watermark
// crash. Writes land on the real filesystem immediately (so readers
// and recovery code see ordinary files), and each tracked file carries
// a durable watermark that advances only on a successful, honest
// fsync. When the schedule crashes the filesystem — or a test calls
// CrashNow — every tracked file is truncated back to its watermark:
// whatever was written but never fsynced is gone, exactly as after
// power loss on a disk with a volatile cache. A crash triggered
// mid-write may leave a configurable torn tail past the watermark on
// the file being written. After the crash the filesystem is inert:
// every operation returns ErrCrashed, so in-flight goroutines fail
// fast instead of mutating the post-crash state. Recovery then reopens
// the directory with a fresh filesystem (usually the passthrough
// fsio.OS) and must cope with what the crash left behind.
//
// Two deliberate simplifications, documented because torture scenarios
// depend on them: a rename, once applied, survives the crash even if
// the directory was never synced (crash-before-rename is modeled by
// Crash without After instead); and file creation likewise persists.
// These make the model strictly kinder than real ext4 — any bug found
// under faultfs exists on real hardware too.
//
// Schedules are just ordered Rules matched by (operation, path
// substring, Nth occurrence). The same rules against the same workload
// replay identically, which is what lets a test name one schedule by
// its label, replay it with go test -run, and pin a bug it found as a
// regression schedule. Matrix and CrashPoints derive the schedules
// from a recorded trace; CheckFinalFiles is the oracle every recovery
// must pass.
package faultfs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"

	"repro/internal/fsio"
)

// ErrCrashed is returned by every operation after the filesystem has
// crash-stopped.
var ErrCrashed = errors.New("faultfs: filesystem crashed")

// Op identifies the operation class a Rule matches.
type Op string

const (
	OpCreate     Op = "create"     // FS.CreateTemp
	OpOpenAppend Op = "openappend" // FS.OpenAppend
	OpWrite      Op = "write"      // File.Write
	OpSync       Op = "sync"       // File.Sync
	OpTruncate   Op = "truncate"   // File.Truncate and FS.Truncate
	OpRename     Op = "rename"     // FS.Rename
	OpRemove     Op = "remove"     // FS.Remove
	OpSyncDir    Op = "syncdir"    // FS.SyncDir
)

// Rule schedules one fault. Zero-value fields widen the match: empty
// Path matches every path, N<=1 fires on the first match. Exactly one
// effect should be set (Err, ShortWrite, SyncLie, or Crash); rules are
// checked in order and a rule fires at most once.
type Rule struct {
	Op   Op
	Path string // substring of the operation's (destination) path
	N    int    // fire on the Nth matching operation, 1-based

	// Err makes the operation fail with this error (e.g. ENOSPC, EIO)
	// without any side effect beyond ShortWrite's partial data.
	Err error
	// ShortWrite (OpWrite) writes only half the buffer through before
	// failing with Err (or io.ErrShortWrite-equivalent ENOSPC).
	ShortWrite bool
	// SyncLie (OpSync) reports success without advancing the durable
	// watermark — the classic lost-write: the ack is given, the data is
	// not on stable storage. Pair with a later CrashNow to expose it.
	SyncLie bool
	// Crash crash-stops the filesystem at this operation. For OpRename
	// and OpRemove, After selects whether the operation applies first.
	// For OpWrite, Partial bytes of the in-flight buffer survive past
	// the watermark as a torn tail (-1 = half the buffer).
	Crash   bool
	After   bool
	Partial int

	matched int
	fired   bool
}

// Record is one entry of the operation trace.
type Record struct {
	Op   Op
	Path string
}

type tracked struct {
	path   string
	synced int64 // durable watermark
	size   int64 // current write offset
	torn   int64 // extra bytes past synced that survive the crash
}

// FS implements fsio.FS with fault injection. Safe for concurrent use.
type FS struct {
	mu       sync.Mutex
	rules    []*Rule
	trace    []Record
	files    map[string]*tracked // keyed by current path
	crashed  bool
	injected int
}

// New builds a hostile filesystem with the given schedule. No rules
// means a recording passthrough: the probe mode that records the
// operation trace a clean run performs, for Matrix and CrashPoints.
func New(rules ...Rule) *FS {
	f := &FS{files: make(map[string]*tracked)}
	for i := range rules {
		r := rules[i]
		f.rules = append(f.rules, &r)
	}
	return f
}

// Schedule is one single-fault plan over a recorded trace.
type Schedule struct {
	// Label names the operation by class and 1-based occurrence, and
	// the fault: "truncate#1:crash", "rename#2:crash-after",
	// "write#7:crash-torn".
	Label string
	Rule  Rule
}

// fault is one fault class: its label suffix and the rule's effect.
type fault struct {
	name string
	rule Rule
}

var (
	crash       = fault{"crash", Rule{Crash: true}}
	crashBefore = fault{"crash-before", Rule{Crash: true}}
	crashAfter  = fault{"crash-after", Rule{Crash: true, After: true}}
	enospc      = fault{"enospc", Rule{Err: syscall.ENOSPC}}
	eio         = fault{"eio", Rule{Err: syscall.EIO}}
)

// matrixFaults lists the fault classes Matrix applies to each
// operation class.
var matrixFaults = map[Op][]fault{
	OpWrite:      {enospc, {"short", Rule{ShortWrite: true}}, {"crash-torn", Rule{Crash: true, Partial: -1}}},
	OpSync:       {eio, {"lie", Rule{SyncLie: true}}, crash},
	OpRename:     {enospc, crashBefore, crashAfter},
	OpRemove:     {crashBefore, crashAfter},
	OpCreate:     {enospc, crash},
	OpOpenAppend: {enospc, crash},
	OpTruncate:   {eio, crash},
	OpSyncDir:    {eio, crash},
}

// Matrix returns, in trace order, one schedule per operation of trace
// per fault class that operation can suffer: ENOSPC and EIO errors,
// short writes, lying fsyncs, crash-stop at the operation, a crash
// that leaves a torn tail mid-write, and a crash after a rename or
// remove applied. A lying fsync shows only at a later power cut, so a
// caller replaying a Rule with SyncLie set calls CrashNow once the
// workload returns.
func Matrix(trace []Record) []Schedule {
	return schedules(trace, func(op Op) []fault { return matrixFaults[op] })
}

// CrashPoints returns, in trace order, a crash before every operation
// of trace and, for a rename or remove, a crash after it applied too.
func CrashPoints(trace []Record) []Schedule {
	return schedules(trace, func(op Op) []fault {
		if op == OpRename || op == OpRemove {
			return []fault{crashBefore, crashAfter}
		}
		return []fault{crash}
	})
}

// schedules makes one schedule per operation of trace per fault class
// that faults lists for the operation's class. Each rule picks its
// operation by class and occurrence, so it fires at the same operation
// of any replay that performs the same operations.
func schedules(trace []Record, faults func(Op) []fault) []Schedule {
	occ := map[Op]int{}
	var out []Schedule
	for _, rec := range trace {
		occ[rec.Op]++
		for _, f := range faults(rec.Op) {
			r := f.rule
			r.Op, r.N = rec.Op, occ[rec.Op]
			out = append(out, Schedule{fmt.Sprintf("%s#%d:%s", rec.Op, r.N, f.name), r})
		}
	}
	return out
}

// CheckFinalFiles walks dir and fails on any torn final-path artifact:
// a *.json or *.jsonl file that does not parse, or a stray atomic-write
// temp file.
func CheckFinalFiles(dir string) error {
	return filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() {
			return err
		}
		name := filepath.Base(path)
		if strings.Contains(name, ".tmp-") {
			return fmt.Errorf("stray atomic-write temp file %s", path)
		}
		switch {
		case strings.HasSuffix(name, ".json"):
			b, rerr := os.ReadFile(path)
			if rerr != nil {
				return rerr
			}
			if !json.Valid(b) {
				return fmt.Errorf("torn JSON at final path %s", path)
			}
		case strings.HasSuffix(name, ".jsonl"):
			b, rerr := os.ReadFile(path)
			if rerr != nil {
				return rerr
			}
			for ln, line := range bytes.Split(b, []byte("\n")) {
				if len(bytes.TrimSpace(line)) == 0 {
					continue
				}
				if !json.Valid(line) {
					return fmt.Errorf("torn journal line %d at final path %s", ln+1, path)
				}
			}
		}
		return nil
	})
}

// Injected reports how many scheduled faults have fired.
func (f *FS) Injected() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// Crashed reports whether the filesystem has crash-stopped.
func (f *FS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Trace returns a copy of the operation trace so far.
func (f *FS) Trace() []Record {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]Record, len(f.trace))
	copy(out, f.trace)
	return out
}

// CrashNow crash-stops the filesystem immediately: every tracked file
// is truncated to its durable watermark and all further operations
// return ErrCrashed. Idempotent.
func (f *FS) CrashNow() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashLocked()
}

func (f *FS) crashLocked() {
	if f.crashed {
		return
	}
	f.crashed = true
	for _, t := range f.files {
		keep := t.synced + t.torn
		if keep < t.size {
			// Best effort on the real file; the handle may already be
			// closed, so truncate by path.
			_ = os.Truncate(t.path, keep)
		}
	}
}

// step records the operation and returns the rule that fires on it,
// if any. Caller holds f.mu.
func (f *FS) stepLocked(op Op, path string) (*Rule, error) {
	if f.crashed {
		return nil, ErrCrashed
	}
	f.trace = append(f.trace, Record{Op: op, Path: path})
	for _, r := range f.rules {
		if r.fired || r.Op != op {
			continue
		}
		if r.Path != "" && !strings.Contains(path, r.Path) {
			continue
		}
		r.matched++
		n := r.N
		if n < 1 {
			n = 1
		}
		if r.matched < n {
			continue
		}
		r.fired = true
		f.injected++
		fsio.NoteFault()
		return r, nil
	}
	return nil, nil
}

func (r *Rule) err() error {
	if r.Err != nil {
		return r.Err
	}
	return syscall.EIO
}

// --- fsio.FS ---

func (f *FS) CreateTemp(dir, pattern string) (fsio.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r, err := f.stepLocked(OpCreate, dir+"/"+pattern)
	if err != nil {
		return nil, err
	}
	if r != nil {
		if r.Crash {
			f.crashLocked()
			return nil, ErrCrashed
		}
		return nil, fmt.Errorf("faultfs: create %s: %w", pattern, r.err())
	}
	osf, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	t := &tracked{path: osf.Name()}
	f.files[t.path] = t
	return &file{fs: f, f: osf, t: t}, nil
}

func (f *FS) OpenAppend(path string) (fsio.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	r, err := f.stepLocked(OpOpenAppend, path)
	if err != nil {
		return nil, err
	}
	if r != nil {
		if r.Crash {
			f.crashLocked()
			return nil, ErrCrashed
		}
		return nil, fmt.Errorf("faultfs: open %s: %w", path, r.err())
	}
	osf, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	size := int64(0)
	if fi, serr := osf.Stat(); serr == nil {
		size = fi.Size()
	}
	// Pre-existing bytes are assumed durable: the crash being modeled
	// is within this process's lifetime, not a previous one.
	t := f.files[path]
	if t == nil {
		t = &tracked{path: path, synced: size, size: size}
		f.files[path] = t
	} else {
		t.size = size
		if t.synced > size {
			t.synced = size
		}
	}
	return &file{fs: f, f: osf, t: t}, nil
}

func (f *FS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	r, err := f.stepLocked(OpRename, newpath)
	if err != nil {
		return err
	}
	if r != nil && !r.Crash {
		return fmt.Errorf("faultfs: rename %s: %w", newpath, r.err())
	}
	if r != nil && r.Crash && !r.After {
		f.crashLocked()
		return ErrCrashed
	}
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	if t, ok := f.files[oldpath]; ok {
		delete(f.files, oldpath)
		t.path = newpath
		f.files[newpath] = t
	}
	if r != nil { // Crash && After
		f.crashLocked()
		return ErrCrashed
	}
	return nil
}

func (f *FS) Remove(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	r, err := f.stepLocked(OpRemove, path)
	if err != nil {
		return err
	}
	if r != nil && !r.Crash {
		return fmt.Errorf("faultfs: remove %s: %w", path, r.err())
	}
	if r != nil && r.Crash && !r.After {
		f.crashLocked()
		return ErrCrashed
	}
	rmErr := os.Remove(path)
	if rmErr == nil {
		delete(f.files, path)
	}
	if r != nil {
		f.crashLocked()
		return ErrCrashed
	}
	return rmErr
}

func (f *FS) RemoveAll(path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return ErrCrashed
	}
	if err := os.RemoveAll(path); err != nil {
		return err
	}
	for p := range f.files {
		if strings.HasPrefix(p, path) {
			delete(f.files, p)
		}
	}
	return nil
}

func (f *FS) Truncate(path string, size int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	r, err := f.stepLocked(OpTruncate, path)
	if err != nil {
		return err
	}
	if r != nil {
		if r.Crash {
			f.crashLocked()
			return ErrCrashed
		}
		return fmt.Errorf("faultfs: truncate %s: %w", path, r.err())
	}
	if err := os.Truncate(path, size); err != nil {
		return err
	}
	if t, ok := f.files[path]; ok {
		t.size = size
		if t.synced > size {
			t.synced = size
		}
	}
	return nil
}

func (f *FS) MkdirAll(path string, perm fs.FileMode) error {
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return ErrCrashed
	}
	return os.MkdirAll(path, perm)
}

func (f *FS) Stat(path string) (fs.FileInfo, error) {
	if f.Crashed() {
		return nil, ErrCrashed
	}
	return os.Stat(path)
}

func (f *FS) ReadFile(path string) ([]byte, error) {
	if f.Crashed() {
		return nil, ErrCrashed
	}
	return os.ReadFile(path)
}

func (f *FS) ReadDir(path string) ([]fs.DirEntry, error) {
	if f.Crashed() {
		return nil, ErrCrashed
	}
	return os.ReadDir(path)
}

func (f *FS) SyncDir(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	r, err := f.stepLocked(OpSyncDir, dir)
	if err != nil {
		return err
	}
	if r != nil {
		if r.Crash {
			f.crashLocked()
			return ErrCrashed
		}
		return fmt.Errorf("faultfs: syncdir %s: %w", dir, r.err())
	}
	// Renames are modeled as durable once applied; nothing to do.
	return nil
}

// --- fsio.File ---

type file struct {
	fs *FS
	f  *os.File
	t  *tracked
}

func (w *file) Name() string { return w.f.Name() }

func (w *file) Write(p []byte) (int, error) {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	r, err := w.fs.stepLocked(OpWrite, w.t.path)
	if err != nil {
		return 0, err
	}
	if r != nil {
		if r.Crash {
			keep := int64(r.Partial)
			if r.Partial < 0 {
				keep = int64(len(p) / 2)
			}
			if keep > int64(len(p)) {
				keep = int64(len(p))
			}
			if keep > 0 {
				n, _ := w.f.Write(p[:keep])
				w.t.size += int64(n)
				w.t.torn = w.t.size - w.t.synced
			}
			w.fs.crashLocked()
			return 0, ErrCrashed
		}
		if r.ShortWrite {
			half := len(p) / 2
			n, _ := w.f.Write(p[:half])
			w.t.size += int64(n)
			e := r.Err
			if e == nil {
				e = syscall.ENOSPC
			}
			return n, fmt.Errorf("faultfs: short write %s: %w", w.t.path, e)
		}
		return 0, fmt.Errorf("faultfs: write %s: %w", w.t.path, r.err())
	}
	n, err := w.f.Write(p)
	w.t.size += int64(n)
	return n, err
}

func (w *file) Sync() error {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	r, err := w.fs.stepLocked(OpSync, w.t.path)
	if err != nil {
		return err
	}
	if r != nil {
		if r.Crash {
			w.fs.crashLocked()
			return ErrCrashed
		}
		if r.SyncLie {
			// Ack without durability: the lost-write model. The real
			// file keeps the bytes until a crash truncates them away.
			return nil
		}
		return fmt.Errorf("faultfs: sync %s: %w", w.t.path, r.err())
	}
	if err := w.f.Sync(); err != nil {
		return err
	}
	w.t.synced = w.t.size
	return nil
}

func (w *file) Truncate(size int64) error {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	r, err := w.fs.stepLocked(OpTruncate, w.t.path)
	if err != nil {
		return err
	}
	if r != nil {
		if r.Crash {
			w.fs.crashLocked()
			return ErrCrashed
		}
		return fmt.Errorf("faultfs: truncate %s: %w", w.t.path, r.err())
	}
	if err := w.f.Truncate(size); err != nil {
		return err
	}
	w.t.size = size
	if w.t.synced > size {
		w.t.synced = size
	}
	return nil
}

func (w *file) Close() error {
	w.fs.mu.Lock()
	crashed := w.fs.crashed
	w.fs.mu.Unlock()
	err := w.f.Close()
	if crashed {
		return ErrCrashed
	}
	return err
}
