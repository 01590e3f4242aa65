package serve_test

// idsevald's storage-fault tests. TestCrashMatrix crosses every durable
// operation of the ingest and shed workloads with every single fault a
// hostile disk can produce, one subtest per schedule label, so
// `go test -run 'TestCrashMatrix/ingest/write#2:crash-torn'` replays
// one schedule. The other tests each replay one exact fault schedule
// that exposed (or guards) a recovery bug:
//
//   - the shed crash window: removing the spool before the tombstone
//     committed silently destroyed acked chunks across a crash;
//   - tombstone-write failure: shedding must keep the stream resumable
//     when the tombstone cannot be written;
//   - a torn tail in the spool itself (not the ack journal): resume
//     must trim the ack journal to the spool-covered prefix and never
//     double-deliver;
//   - finish.json committed but the evaluation never journaled: the
//     stream re-queues and delivers exactly once;
//   - crash mid-commit: recovery sweeps the stranded atomic-write temp
//     files.

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/fsio"
	"repro/internal/fsio/faultfs"
	"repro/internal/serve"
)

// shedService opens a service with a spool budget small enough that a
// second stream's first chunk sheds the idle victim.
func shedService(t *testing.T, dir string, fs *faultfs.FS) *serve.Service {
	t.Helper()
	return openService(t, dir, func(c *serve.Config) {
		c.EvalWorkers = -1
		c.MaxSpoolBytes = 2500
		c.RetryAfter = time.Millisecond
		if fs != nil {
			c.FS = fs
		}
	})
}

// spoolTwoThenOverflow uploads two 1000-byte chunks on "victim", then
// lets "noisy" overflow the 2500-byte budget so the service sheds the
// idle victim. It stops at the first error and returns it.
func spoolTwoThenOverflow(svc *serve.Service) error {
	chunk := bytes.Repeat([]byte{0xAB}, 1000)
	if _, err := svc.Hello(quickMeta("victim")); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		if _, err := svc.Accept("victim", uint32(i), chunk); err != nil {
			return err
		}
	}
	if _, err := svc.Hello(quickMeta("noisy")); err != nil {
		return err
	}
	_, err := svc.Accept("noisy", 0, chunk)
	return err
}

// TestCrashMatrix probes each workload's clean operation trace, then
// replays the workload once per faultfs.Matrix schedule and recovers on
// the real filesystem:
//
//   - ingest: a 3-chunk upload and finish. The ledger balances, Hello's
//     next is the durable ack prefix, the resumed upload completes, and
//     the reassembled spool is the trace byte for byte.
//   - shed: "noisy" overflows the spool budget and sheds the idle
//     "victim". The victim ends tombstoned with its chunks accounted,
//     or intact at its durable acks: a crash inside the shed sequence
//     never silently empties a stream.
//
// The workloads open the service on an empty directory, which performs
// no recorded operation, so no schedule fails the open itself.
func TestCrashMatrix(t *testing.T) {
	// Hundreds of injected directory-sync and append failures would
	// each log a warning.
	prev := fsio.SetWarnLog(io.Discard)
	t.Cleanup(func() { fsio.SetWarnLog(prev) })

	payload := buildTraceBytes(t, 7)
	chunks := chunked(payload, (len(payload)+2)/3)
	t.Run("ingest", func(t *testing.T) {
		crashMatrix(t, func(t *testing.T, dir string, ffs *faultfs.FS) error {
			svc := openService(t, dir, func(c *serve.Config) {
				c.EvalWorkers = -1
				c.FS = ffs
			})
			defer svc.Close()
			return upload(svc, quickMeta("tor"), chunks)
		}, func(t *testing.T, dir string, lying bool) {
			verifyIngest(t, dir, payload, chunks, lying)
		})
	})
	t.Run("shed", func(t *testing.T) {
		crashMatrix(t, func(t *testing.T, dir string, ffs *faultfs.FS) error {
			svc := shedService(t, dir, ffs)
			defer svc.Close()
			return spoolTwoThenOverflow(svc)
		}, verifyShed)
	})
}

// crashMatrix runs workload once on a recording faultfs and verifies
// the clean result, then runs one subtest per faultfs.Matrix schedule
// of the recorded trace: the workload under that fault, a power cut if
// the schedule lied about an fsync, and verify on what the fault left.
func crashMatrix(t *testing.T, workload func(t *testing.T, dir string, ffs *faultfs.FS) error,
	verify func(t *testing.T, dir string, lying bool)) {
	t.Helper()
	probe, dir := faultfs.New(), t.TempDir()
	if err := workload(t, dir, probe); err != nil {
		t.Fatalf("clean probe run: %v", err)
	}
	verify(t, dir, false)
	for _, s := range faultfs.Matrix(probe.Trace()) {
		t.Run(s.Label, func(t *testing.T) {
			dir, ffs := t.TempDir(), faultfs.New(s.Rule)
			// Most schedules fail the workload; only recovery's verdict
			// counts.
			err := workload(t, dir, ffs)
			t.Logf("workload under the fault: %v", err)
			if s.Rule.SyncLie {
				ffs.CrashNow()
			}
			verify(t, dir, s.Rule.SyncLie)
		})
	}
}

// verifyIngest recovers an ingest workload's directory, resumes the
// upload and checks it against the trace.
func verifyIngest(t *testing.T, dir string, payload []byte, chunks [][]byte, lying bool) {
	streamDir := filepath.Join(dir, "streams", "tor")
	// The durable resume point, read straight off the post-crash disk,
	// before recovery touches anything.
	acked := countAckLines(streamDir)
	svc := openService(t, dir, func(c *serve.Config) { c.EvalWorkers = -1 })
	defer svc.Close()
	checkLedger(t, svc)
	info, err := svc.Hello(quickMeta("tor"))
	if err != nil {
		t.Fatalf("hello after recovery: %v", err)
	}
	switch info.State {
	case serve.StateQueued, serve.StateRunning, serve.StateDone:
		// Finish committed before the fault: all chunks delivered.
		if info.Next != uint32(len(chunks)) {
			t.Fatalf("delivered stream reports next=%d, want %d", info.Next, len(chunks))
		}
	case serve.StateOpen:
		checkResume(t, svc, "tor", acked, lying)
		uploadAll(t, svc, quickMeta("tor"), chunks)
	default:
		t.Fatalf("stream in unexpected state %q after recovery", info.State)
	}
	spool, err := os.ReadFile(filepath.Join(streamDir, "trace.idt2"))
	if err != nil {
		t.Fatalf("reading reassembled spool: %v", err)
	}
	if !bytes.Equal(spool, payload) {
		t.Fatalf("reassembled spool differs from original (%d vs %d bytes)", len(spool), len(payload))
	}
	checkLedger(t, svc)
	checkFinalFiles(t, dir, lying)
}

// verifyShed recovers a shed workload's directory and checks that the
// victim is either shed with its chunks accounted or resumable at its
// durable acks.
func verifyShed(t *testing.T, dir string, lying bool) {
	victimDir := filepath.Join(dir, "streams", "victim")
	victimAcked := countAckLines(victimDir)
	noisyAcked := countAckLines(filepath.Join(dir, "streams", "noisy"))
	tombstoned := fileExists(filepath.Join(victimDir, "shed.json"))

	svc := shedService(t, dir, nil)
	defer svc.Close()
	checkLedger(t, svc)
	if st, ok := svc.Status("victim"); ok {
		switch st.State {
		case serve.StateShed:
			// Tombstoned: the chunks must be accounted and the dead spool
			// cleaned up by recovery.
			if !tombstoned {
				t.Fatal("victim reports shed but no tombstone on disk")
			}
			if fileExists(filepath.Join(victimDir, "trace.idt2")) || fileExists(filepath.Join(victimDir, "acks.jsonl")) {
				t.Fatal("shed victim still holds spool/ack files after recovery")
			}
			if counts := svc.Counts(); counts.Shed[serve.ShedOverload]+counts.Shed[serve.ShedIdle] != st.Chunks {
				t.Fatalf("victim shed %d chunks but ledger sheds account %d",
					st.Chunks, counts.Shed[serve.ShedOverload]+counts.Shed[serve.ShedIdle])
			}
		case serve.StateOpen:
			// Not tombstoned: the upload must be fully intact.
			checkResume(t, svc, "victim", victimAcked, lying)
		default:
			t.Fatalf("victim in unexpected state %q", st.State)
		}
	} else if !lying && (victimAcked > 0 || tombstoned) {
		// Under a lying fsync the victim's meta.json can be torn at the
		// final path, and a meta-less directory is legitimately swept.
		t.Fatal("victim stream vanished despite durable state on disk")
	}
	if st, ok := svc.Status("noisy"); ok && st.State == serve.StateOpen {
		checkResume(t, svc, "noisy", noisyAcked, lying)
	}
	checkFinalFiles(t, dir, lying)
}

// checkResume requires an open stream's Hello to resume at its durable
// acks. A lying fsync may lose acks at the power cut, so after one the
// resume point may fall short of the acks on disk but never pass them.
func checkResume(t *testing.T, svc *serve.Service, name string, acked uint64, lying bool) {
	t.Helper()
	info, err := svc.Hello(quickMeta(name))
	if err != nil {
		t.Fatalf("%s hello: %v", name, err)
	}
	if next := uint64(info.Next); next > acked || !lying && next != acked {
		t.Fatalf("%s resumes at next=%d, durable ack journal says %d", name, next, acked)
	}
}

// checkFinalFiles fails on a torn file at a final path. A lying fsync
// defeats write-then-rename atomicity: the rename can land and the
// power cut then truncates the final path. The system's defense is
// read-time validation plus heal-on-rewrite, not prevention, so the
// sweep does not apply after one.
func checkFinalFiles(t *testing.T, dir string, lying bool) {
	t.Helper()
	if lying {
		return
	}
	if err := faultfs.CheckFinalFiles(dir); err != nil {
		t.Fatal(err)
	}
}

// countAckLines replays an ack journal the way recovery does: the
// lines of its fsio log prefix that run in order from ordinal 0 and
// whose lengths the spool's bytes cover.
func countAckLines(dir string) uint64 {
	spoolSize := int64(0)
	if fi, err := os.Stat(filepath.Join(dir, "trace.idt2")); err == nil {
		spoolSize = fi.Size()
	}
	var chunks uint64
	var covered int64
	// An unreadable journal counts as empty, like an absent one.
	_, _, _ = fsio.ReplayLog(fsio.OS, filepath.Join(dir, "acks.jsonl"), func(line []byte) bool {
		var e struct {
			Ord uint32 `json:"ord"`
			Len int    `json:"len"`
		}
		// Compare against the spool bytes left, as recovery does: a
		// huge journaled length would overflow the sum.
		if json.Unmarshal(line, &e) != nil || uint64(e.Ord) != chunks ||
			e.Len < 0 || int64(e.Len) > spoolSize-covered {
			return false
		}
		chunks++
		covered += int64(e.Len)
		return true
	})
	return chunks
}

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

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// TestShedCrashBetweenTombstoneAndRemovals pins the shed commit
// discipline: the tombstone is the commit point, so a crash between
// writing it and removing the spool must recover as a fully accounted
// shed, with recovery finishing the removals.
func TestShedCrashBetweenTombstoneAndRemovals(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(faultfs.Rule{Op: faultfs.OpRemove, Path: "victim", N: 1, Crash: true})
	svc := shedService(t, dir, ffs)
	spoolTwoThenOverflow(svc) // the overflow path hits the crash
	svc.Close()
	if !ffs.Crashed() {
		t.Fatal("schedule did not reach the spool removal")
	}

	svc2 := shedService(t, dir, nil)
	defer svc2.Close()
	st, ok := svc2.Status("victim")
	if !ok || st.State != serve.StateShed {
		t.Fatalf("victim after recovery: ok=%v state=%+v, want shed", ok, st)
	}
	if st.Chunks != 2 {
		t.Fatalf("shed victim accounts %d chunks, want 2", st.Chunks)
	}
	if err := svc2.Counts().Check(); err != nil {
		t.Fatalf("ledger after recovery: %v", err)
	}
	vdir := filepath.Join(dir, "streams", "victim")
	for _, f := range []string{"trace.idt2", "acks.jsonl"} {
		if _, err := os.Stat(filepath.Join(vdir, f)); err == nil {
			t.Errorf("recovery left dead %s behind after interrupted shed", f)
		}
	}
}

// TestShedTombstoneFailureKeepsStreamResumable pins the other side of
// the discipline: if the tombstone cannot be written, the spool and
// ack journal must survive so the stream resumes intact. (The original
// bug removed them first — a crash or failure in between silently
// destroyed acked chunks and resumed the stream empty.)
func TestShedTombstoneFailureKeepsStreamResumable(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(faultfs.Rule{Op: faultfs.OpCreate, Path: "shed.json", N: 1, Err: syscall.ENOSPC})
	svc := shedService(t, dir, ffs)
	spoolTwoThenOverflow(svc)
	svc.Close()
	if ffs.Injected() != 1 {
		t.Fatal("schedule never reached the tombstone write")
	}

	svc2 := shedService(t, dir, nil)
	defer svc2.Close()
	info, err := svc2.Hello(quickMeta("victim"))
	if err != nil {
		t.Fatal(err)
	}
	if info.State != serve.StateOpen || info.Next != 2 {
		t.Fatalf("victim after failed tombstone: state=%s next=%d, want open/2 (acked chunks lost)", info.State, info.Next)
	}
	if err := svc2.Counts().Check(); err != nil {
		t.Fatalf("ledger after recovery: %v", err)
	}
}

// TestSpoolTornTailTrimsAckJournal pins the recovery corner where the
// torn tail is in the spool, not the ack journal: the journal's last
// line claims bytes the spool no longer covers, so recovery must trim
// the journal to the covered prefix and resume without re-acking or
// double-delivering the lost chunk.
func TestSpoolTornTailTrimsAckJournal(t *testing.T) {
	dir := t.TempDir()
	payload := buildTraceBytes(t, 7)
	chunks := chunked(payload, (len(payload)+3)/4)

	svc := openService(t, dir, func(c *serve.Config) { c.EvalWorkers = -1 })
	if _, err := svc.Hello(quickMeta("torn")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := svc.Accept("torn", uint32(i), chunks[i]); err != nil {
			t.Fatal(err)
		}
	}
	svc.Close()

	// Tear the spool mid-third-chunk; the ack journal still has all
	// three lines.
	spool := filepath.Join(dir, "streams", "torn", "trace.idt2")
	fi, err := os.Stat(spool)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(spool, fi.Size()-int64(len(chunks[2])/2)); err != nil {
		t.Fatal(err)
	}

	svc2 := openService(t, dir, nil)
	defer svc2.Close()
	info, err := svc2.Hello(quickMeta("torn"))
	if err != nil {
		t.Fatal(err)
	}
	if info.Next != 2 {
		t.Fatalf("resume point after torn spool: next=%d, want 2 (chunk 2's bytes are gone)", info.Next)
	}
	// Resume: re-upload from the trimmed point; the finished stream
	// must evaluate cleanly, proving the spool was reassembled exactly.
	uploadAll(t, svc2, quickMeta("torn"), chunks)
	awaitDone(t, svc2, "torn")
	got, err := os.ReadFile(spool)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("reassembled spool differs from original (%d vs %d bytes)", len(got), len(payload))
	}
	if err := svc2.Counts().Check(); err != nil {
		t.Fatalf("ledger: %v", err)
	}
}

// TestFinishedButNeverJournaledRequeuesOnce pins the delivery corner:
// finish.json committed (delivery promised) but the daemon died before
// the evaluation wrote a single campaign journal line. Recovery must
// re-queue the stream and deliver exactly once.
func TestFinishedButNeverJournaledRequeuesOnce(t *testing.T) {
	dir := t.TempDir()
	payload := buildTraceBytes(t, 7)
	chunks := chunked(payload, (len(payload)+3)/4)

	// No eval workers: Finish commits finish.json and queues, then the
	// "daemon" dies before any evaluation work starts.
	svc := openService(t, dir, func(c *serve.Config) { c.EvalWorkers = -1 })
	uploadAll(t, svc, quickMeta("fin"), chunks)
	svc.Close()
	if _, err := os.Stat(filepath.Join(dir, "streams", "fin", "finish.json")); err != nil {
		t.Fatalf("finish.json not committed: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "streams", "fin", "campaign", "journal.jsonl")); err == nil {
		t.Fatal("test premise broken: evaluation journal already exists")
	}

	svc2 := openService(t, dir, nil)
	defer svc2.Close()
	awaitDone(t, svc2, "fin")
	counts := svc2.Counts()
	if err := counts.Check(); err != nil {
		t.Fatalf("ledger: %v", err)
	}
	if counts.Delivered != uint64(len(chunks)) {
		t.Fatalf("delivered=%d, want exactly %d (no double-delivery)", counts.Delivered, len(chunks))
	}
}

// TestRecoverySweepsStrayCommitTemps pins the stray-temp leak found by
// the matrix: a crash between CreateTemp and Commit strands the
// ".<name>.tmp-*" file, and before the fix no recovery path removed it.
func TestRecoverySweepsStrayCommitTemps(t *testing.T) {
	dir := t.TempDir()
	ffs := faultfs.New(faultfs.Rule{Op: faultfs.OpRename, Path: "finish.json", N: 1, Crash: true})
	svc := openService(t, dir, func(c *serve.Config) {
		c.EvalWorkers = -1
		c.FS = ffs
	})
	payload := buildTraceBytes(t, 7)
	chunks := chunked(payload, (len(payload)+3)/4)
	info, err := svc.Hello(quickMeta("stray"))
	if err != nil {
		t.Fatal(err)
	}
	for i := int(info.Next); i < len(chunks); i++ {
		if _, err := svc.Accept("stray", uint32(i), chunks[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := svc.Finish("stray", uint64(len(chunks)), int64(len(payload))); err == nil {
		t.Fatal("finish succeeded despite crash at its rename")
	}
	svc.Close()

	sdir := filepath.Join(dir, "streams", "stray")
	if !hasStrayTemp(t, sdir) {
		t.Fatal("test premise broken: crash left no stray temp file")
	}
	svc2 := openService(t, dir, func(c *serve.Config) { c.EvalWorkers = -1 })
	defer svc2.Close()
	if hasStrayTemp(t, sdir) {
		t.Fatal("recovery left the stray atomic-write temp file behind")
	}
	// And the interrupted upload is still resumable where it left off.
	info, err = svc2.Hello(quickMeta("stray"))
	if err != nil {
		t.Fatal(err)
	}
	if info.State != serve.StateOpen || info.Next != uint32(len(chunks)) {
		t.Fatalf("stream after recovery: state=%s next=%d, want open/%d", info.State, info.Next, len(chunks))
	}
}

// crashMidAckAppend uploads into a fresh directory until one crashed
// state: the first Hello fails at its meta.json rename and cannot remove
// the temp file, the retried Hello succeeds, and the power is cut
// halfway through the third chunk's ack line, after its spool append.
// The ack journal holds two acks and a torn line; the spool runs ahead.
func crashMidAckAppend(t *testing.T, chunks [][]byte) string {
	t.Helper()
	dir := t.TempDir()
	ffs := faultfs.New(
		faultfs.Rule{Op: faultfs.OpRename, Path: "meta.json", Err: syscall.ENOSPC},
		faultfs.Rule{Op: faultfs.OpRemove, Path: "meta.json", Err: syscall.EIO},
		faultfs.Rule{Op: faultfs.OpWrite, Path: "acks.jsonl", N: 3, Crash: true, Partial: -1},
	)
	svc := openService(t, dir, func(c *serve.Config) {
		c.EvalWorkers = -1
		c.FS = ffs
	})
	defer svc.Close()
	if _, err := svc.Hello(quickMeta("torn")); err == nil {
		t.Fatal("first Hello survived its failed meta.json rename")
	}
	if _, err := svc.Hello(quickMeta("torn")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		svc.Accept("torn", uint32(i), chunks[i])
	}
	if !ffs.Crashed() || !hasStrayTemp(t, filepath.Join(dir, "streams", "torn")) {
		t.Fatal("schedule did not leave a torn ack append beside a stray temp")
	}
	return dir
}

// TestCrashDuringRecoveryResumesUpload crashes idsevald's recovery
// itself. From one crashed state (a torn ack append, the spool ahead of
// the journal, a stray meta temp) it records recovery's operation
// trace, then crashes recovery at each operation, before it and, for a
// remove, after it too. Recovering again on the real filesystem must
// resume at the two durable acks, finish the upload with a spool
// byte-identical to the trace, and balance the ledger.
func TestCrashDuringRecoveryResumesUpload(t *testing.T) {
	payload := buildTraceBytes(t, 7)
	chunks := chunked(payload, (len(payload)+3)/4)
	probe := faultfs.New()
	svc := openService(t, crashMidAckAppend(t, chunks), func(c *serve.Config) {
		c.EvalWorkers = -1
		c.FS = probe
	})
	// Recovery removes the stray temp, cuts and opens the ack journal,
	// and cuts and opens the spool.
	trace := probe.Trace()
	svc.Close()
	if len(trace) != 5 {
		t.Fatalf("recovery performed %v, want 5 operations", trace)
	}
	for _, p := range faultfs.CrashPoints(trace) {
		t.Run(p.Label, func(t *testing.T) {
			dir := crashMidAckAppend(t, chunks)
			ffs := faultfs.New(p.Rule)
			if svc, err := serve.Open(serve.Config{Dir: dir, FS: ffs, EvalWorkers: -1}); err == nil {
				svc.Close()
				t.Fatal("recovery survived a crash at its own operation")
			}
			svc := openService(t, dir, func(c *serve.Config) { c.EvalWorkers = -1 })
			defer svc.Close()
			checkLedger(t, svc)
			info, err := svc.Hello(quickMeta("torn"))
			if err != nil {
				t.Fatal(err)
			}
			if info.State != serve.StateOpen || info.Next != 2 {
				t.Fatalf("after the crashed recovery: state %s, next %d; want open at the 2 durable acks", info.State, info.Next)
			}
			uploadAll(t, svc, quickMeta("torn"), chunks)
			spool, err := os.ReadFile(filepath.Join(dir, "streams", "torn", "trace.idt2"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(spool, payload) {
				t.Fatalf("resumed spool differs from the trace (%d vs %d bytes)", len(spool), len(payload))
			}
			checkLedger(t, svc)
		})
	}
}

// readEIO fails the read of one stream's state record with EIO and
// passes everything else through to the real filesystem.
type readEIO struct {
	fsio.FS
	suffix string
}

func (r readEIO) ReadFile(path string) ([]byte, error) {
	if strings.HasSuffix(path, r.suffix) {
		return nil, &fs.PathError{Op: "read", Path: path, Err: syscall.EIO}
	}
	return r.FS.ReadFile(path)
}

// TestRecoveryReadErrorFailsOpen pins that only a missing or unparseable
// state record reads as absent. A meta.json that exists but cannot be
// read used to remove an acked upload as a meta-less husk, and an
// unreadable shed.json resurrected a shed stream as open. Either must
// now fail Open, name the stream, and leave every file as it was.
func TestRecoveryReadErrorFailsOpen(t *testing.T) {
	dir := t.TempDir()
	svc := shedService(t, dir, nil)
	if err := spoolTwoThenOverflow(svc); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	before := treeBytes(t, dir)
	for _, tc := range []struct{ stream, file string }{
		{"noisy", "meta.json"}, // one acked chunk
		{"victim", "shed.json"},
	} {
		t.Run(tc.file, func(t *testing.T) {
			_, err := serve.Open(serve.Config{Dir: dir, EvalWorkers: -1,
				FS: readEIO{FS: fsio.OS, suffix: filepath.Join(tc.stream, tc.file)}})
			if !errors.Is(err, syscall.EIO) || !strings.Contains(err.Error(), "stream "+tc.stream) {
				t.Fatalf("Open over an unreadable %s/%s: %v; want an EIO naming the stream", tc.stream, tc.file, err)
			}
			if !reflect.DeepEqual(treeBytes(t, dir), before) {
				t.Fatal("the failed recovery changed the stream files")
			}
		})
	}
}

// treeBytes maps every file under dir to its contents.
func treeBytes(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		b, err := os.ReadFile(path)
		files[path] = string(b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func hasStrayTemp(t *testing.T, dir string) bool {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.Contains(e.Name(), ".tmp-") {
			return true
		}
	}
	return false
}

// TestScorecardReadErrorFailsFeed pins that a done stream's scorecard
// is read through Config.FS. When scorecard.txt cannot be read after a
// restart, Scorecard returns the error, and a subscriber's replayed
// feed ends in EventFailed naming it rather than completing without a
// scorecard.
func TestScorecardReadErrorFailsFeed(t *testing.T) {
	dir := t.TempDir()
	svc := openService(t, dir, nil)
	uploadAll(t, svc, quickMeta("card"), chunked(buildTraceBytes(t, 31), 48<<10))
	awaitDone(t, svc, "card")
	svc.Close()

	svc = openService(t, dir, func(c *serve.Config) {
		c.FS = readEIO{FS: fsio.OS, suffix: filepath.Join("card", "scorecard.txt")}
	})
	defer svc.Close()
	if _, err := svc.Scorecard("card"); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Scorecard over an unreadable scorecard.txt: %v; want EIO", err)
	}
	history, ch, cancel, err := svc.Subscribe("card")
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()
	if ch != nil || len(history) == 0 {
		t.Fatalf("done stream's feed: %d events, live=%v; want an ended feed", len(history), ch != nil)
	}
	for _, ev := range history[:len(history)-1] {
		if ev.Kind == serve.EventScorecard || ev.Kind == serve.EventComplete {
			t.Fatalf("feed carries %v before its end", ev.Kind)
		}
	}
	if last := history[len(history)-1]; last.Kind != serve.EventFailed || !strings.Contains(string(last.Payload), syscall.EIO.Error()) {
		t.Fatalf("feed ends in %v %q; want EventFailed naming EIO", last.Kind, last.Payload)
	}
}
