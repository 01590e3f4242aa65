package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/fsio"
)

// FuzzServeHello decodes a Hello payload into StreamMeta the way
// handleConn does and hands it to Service.Hello on a fresh service.
// Either the stream is refused with a *ProtocolError or *RejectError
// (a payload that does not decode is refused by handleConn itself) and
// no stream directory exists, or the stream opens, its persisted meta
// record decodes to the meta the open stream holds and encodes as the
// sent meta does, and its campaign spec plans. The seed corpus is
// testdata/fuzz/FuzzServeHello; its empty-products seed is the input
// that found a meta record reloading with a nil product list where the
// open stream held an empty one.
func FuzzServeHello(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte) {
		dir := t.TempDir()
		svc, err := Open(Config{Dir: dir, EvalWorkers: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		var meta StreamMeta
		if err := json.Unmarshal(payload, &meta); err != nil {
			refused(t, dir, meta, &ProtocolError{Msg: "malformed hello metadata: " + err.Error()})
			return
		}
		if _, err := svc.Hello(meta); err != nil {
			refused(t, dir, meta, err)
			return
		}
		var got StreamMeta
		if ok, err := readRecord(fsio.OS, filepath.Join(svc.streamDir(meta.Name), metaFile), &got); !ok || err != nil {
			t.Fatalf("Hello(%+v) persisted no readable meta record (%v)", meta, err)
		}
		if held := svc.streams[meta.Name].meta; !reflect.DeepEqual(got, held) {
			t.Fatalf("meta record decodes to %+v, the open stream holds %+v", got, held)
		}
		if a, b := mustJSON(t, got), mustJSON(t, meta); !bytes.Equal(a, b) {
			t.Fatalf("meta record is %s, Hello was sent %s", a, b)
		}
		if _, err := campaignSpec(got, filepath.Join(svc.streamDir(got.Name), spoolFile)).Plan(); err != nil {
			t.Fatalf("opened stream's campaign does not plan: %v", err)
		}
	})
}

// mustJSON marshals v as the meta record's encoder does, minus indent.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// refused checks that a Hello refused with err answered with a protocol
// or reject error and left no stream directory under the service dir.
func refused(t *testing.T, dir string, meta StreamMeta, err error) {
	t.Helper()
	var pe *ProtocolError
	var re *RejectError
	if !errors.As(err, &pe) && !errors.As(err, &re) {
		t.Fatalf("Hello(%+v): %v, want a protocol or reject error", meta, err)
	}
	if entries, err := os.ReadDir(filepath.Join(dir, "streams")); err != nil || len(entries) > 0 {
		t.Fatalf("refused Hello(%+v) left streams %v (%v)", meta, entries, err)
	}
}

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

// FuzzReadRecord writes arbitrary bytes as each state record the
// service recovers — meta, shed, failed and finish — and reads it with
// readRecord. Either the bytes read as absent, or they decode to a value
// that writeJSONFile writes back and readRecord reads as the same value.
// The seed corpus is testdata/fuzz/FuzzReadRecord.
func FuzzReadRecord(f *testing.F) {
	records := []struct {
		file string
		zero func() any
	}{
		{metaFile, func() any { return new(StreamMeta) }},
		{shedFile, func() any { return new(shedRecord) }},
		{failedFile, func() any { return new(failRecord) }},
		{finishFile, func() any { return new(finishRecord) }},
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		for _, rec := range records {
			path := filepath.Join(dir, rec.file)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			read := rec.zero()
			if ok, err := readRecord(fsio.OS, path, read); err != nil {
				t.Fatalf("%s: %v", rec.file, err)
			} else if !ok {
				continue
			}
			if err := writeJSONFile(fsio.OS, path, read); err != nil {
				t.Fatalf("%s: writing back %+v: %v", rec.file, read, err)
			}
			again := rec.zero()
			if ok, err := readRecord(fsio.OS, path, again); !ok || err != nil {
				t.Fatalf("%s: %+v written back reads as absent (%v)", rec.file, read, err)
			}
			if !reflect.DeepEqual(read, again) {
				t.Fatalf("%s: %q reads as %+v, written back as %+v", rec.file, data, read, again)
			}
		}
	})
}
