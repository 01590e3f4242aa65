package serve

// White-box tests for the shed/Finish race guards: a StateFinishing
// stream sits inside some Finish call's unlocked validation window
// (spool being read, delivery about to commit), so shedding it there
// would either double-book its chunks or deliver already-shed ones.
// The external soak test exercises these windows statistically; these
// pin the guards deterministically.

import (
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/packet"
	"repro/internal/trace"
)

func openRawService(t *testing.T) *Service {
	t.Helper()
	svc, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	return svc
}

func acceptOne(t *testing.T, svc *Service, name string, payload []byte) *stream {
	t.Helper()
	if _, err := svc.Hello(StreamMeta{Name: name}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Accept(name, 0, payload); err != nil {
		t.Fatal(err)
	}
	svc.mu.Lock()
	st := svc.streams[name]
	svc.mu.Unlock()
	return st
}

// The overload victim search must skip finishing streams even when one
// is by far the idlest.
func TestOverloadShedSkipsFinishingStreams(t *testing.T) {
	svc := openRawService(t)
	payload := []byte("0123456789")
	fin := acceptOne(t, svc, "fin", payload)
	open := acceptOne(t, svc, "open", payload)

	fin.mu.Lock()
	fin.state = StateFinishing
	fin.lastActive = time.Now().Add(-time.Hour)
	fin.mu.Unlock()

	svc.mu.Lock()
	svc.shedIdlestLocked(nil)
	svc.mu.Unlock()

	if got := fin.status().State; got != StateFinishing {
		t.Fatalf("finishing stream was shed (state %s); it must never be an overload victim", got)
	}
	if got := open.status().State; got != StateShed {
		t.Fatalf("open stream state = %s, want shed (the only eligible victim)", got)
	}
	if got := svc.spoolBytes.Load(); got != int64(len(payload)) {
		t.Fatalf("spoolBytes = %d after shedding one of two %d-byte streams, want %d",
			got, len(payload), len(payload))
	}
	if err := svc.Counts().Check(); err != nil {
		t.Fatal(err)
	}
}

// shedCorruptLocked fires from Finish's validation-failure path after
// the locks were dropped; if the stream was already shed in that window
// it must be a no-op, not a second shed (which would double-subtract
// the spool budget and double-book the chunks).
func TestShedCorruptIsNoOpOnAlreadyShedStream(t *testing.T) {
	svc := openRawService(t)
	payload := []byte("0123456789")
	st := acceptOne(t, svc, "victim", payload)

	st.mu.Lock()
	st.state = StateFinishing
	st.mu.Unlock()

	svc.mu.Lock()
	svc.shedLocked(st, ShedIdle)
	svc.shedCorruptLocked(st, 1, int64(len(payload)))
	svc.mu.Unlock()

	c := svc.Counts()
	if err := c.Check(); err != nil {
		t.Fatal(err)
	}
	if c.Shed[ShedIdle] != 1 || c.Shed[ShedCorrupt] != 0 {
		t.Fatalf("shed counters = %v, want exactly one idle shed and no corrupt shed", c.Shed)
	}
	if got := svc.spoolBytes.Load(); got != 0 {
		t.Fatalf("spoolBytes = %d after one shed of the only stream, want 0 (double subtraction)", got)
	}
}

// Finish's delivery commit re-checks the stream state under both locks:
// a stream shed out of the finishing window (idle reaper) must not be
// delivered on top of its shed booking.
func TestFinishRefusesDeliveryOfStreamShedMidWindow(t *testing.T) {
	svc := openRawService(t)
	payload := []byte("0123456789")
	st := acceptOne(t, svc, "victim", payload)

	// Shed the stream as the reaper would, then drive Finish with the
	// acked totals. Finish sees a terminal state and must refuse rather
	// than re-validate or deliver.
	svc.mu.Lock()
	svc.shedLocked(st, ShedIdle)
	svc.mu.Unlock()

	err := svc.Finish("victim", 1, int64(len(payload)))
	if err == nil {
		t.Fatal("Finish delivered a shed stream")
	}
	c := svc.Counts()
	if cerr := c.Check(); cerr != nil {
		t.Fatal(cerr)
	}
	if c.Delivered != 0 || c.Shed[ShedIdle] != 1 {
		t.Fatalf("counts = %+v, want the chunk shed once and never delivered", c)
	}
}

// writeSpool writes an IDT2 spool of n full chunks of one record shape.
// Records start an hour in, so every chunk's base time encodes to the
// same length and all n chunks need buffers of one size.
func writeSpool(t *testing.T, n int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spool.idt2")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := trace.NewWriter(f, "spool", 1)
	if err != nil {
		t.Fatal(err)
	}
	p := &packet.Packet{
		Src: packet.IPv4(10, 0, 0, 1), Dst: packet.IPv4(10, 0, 0, 2),
		SrcPort: 4000, DstPort: 53, Proto: packet.ProtoUDP, TTL: 64,
		Payload: []byte("spooled payload"),
	}
	for i := 0; i < n*trace.DefaultChunkRecords; i++ {
		if err := w.Append(time.Hour+time.Duration(i)*time.Microsecond, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// Validating a spool hands each decoded chunk back to the reader, so a
// spool of 16 equal-size chunks decodes into about one chunk's buffers,
// as a one-chunk spool does, rather than one set per chunk.
func TestValidateSpoolRecyclesChunkBuffers(t *testing.T) {
	allocated := func(path string) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if err := validateSpool(path); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	one, many := allocated(writeSpool(t, 1)), allocated(writeSpool(t, 16))
	if many > 2*one {
		t.Fatalf("validating 16 chunks allocated %d bytes, one chunk %d: decoded chunks are not recycled", many, one)
	}
}
