package detect

import (
	"bytes"
	"testing"
)

// FuzzScanBatchEquivalence is the differential gate for the batched
// scanner: for an arbitrary pattern corpus and an arbitrary payload
// batch, ScanBatch's per-payload distinct hit sets must be identical to
// scalar ScanSetInto's, which in turn must match the quadratic NaiveScan
// reference. It also cross-checks the flattened hybrid automaton's full
// match stream (Scan) against NaiveScan, so a layout bug that shifts,
// drops, or duplicates matches cannot hide behind set semantics.
func FuzzScanBatchEquivalence(f *testing.F) {
	f.Add([]byte("\x04root\x03cat\x06passwd\x02.."), []byte("\x10cat /etc/passwd!\x00\x05root."))
	f.Add([]byte("\x01a\x02ab\x03abc\x04abcd"), []byte("\x0aabcdabcdab\x01a\x00\x03abc"))
	f.Add([]byte("\x02\x00\x01\x03\xff\xfe\xfd"), []byte("\x08\x00\x01\x00\x01\xff\xfe\xfd\x00"))
	f.Add([]byte("\x05needl\x05eedle"), bytes.Repeat([]byte("\x07needle "), 12))

	f.Fuzz(func(t *testing.T, spec, blob []byte) {
		pats := fuzzPatterns(spec)
		// blob frames the payload batch: length byte then payload bytes
		// (zero-length payloads included — a real batch shape).
		var payloads [][]byte
		for len(blob) >= 1 && len(payloads) < 3*batchLanes {
			n := int(blob[0])
			blob = blob[1:]
			if n > len(blob) {
				n = len(blob)
			}
			payloads = append(payloads, blob[:n])
			blob = blob[n:]
		}

		m := NewMatcher(pats)
		var bbuf BatchBuf
		m.ScanBatch(payloads, &bbuf)
		if bbuf.Len() != len(payloads) {
			t.Fatalf("ScanBatch covered %d payloads, want %d", bbuf.Len(), len(payloads))
		}
		var sbuf ScanBuf
		for i, pl := range payloads {
			got := bbuf.Hits(i)
			want := m.ScanSetInto(pl, &sbuf)
			if !equalInt32(got, want) {
				t.Fatalf("payload %d: ScanBatch %v, ScanSetInto %v", i, got, want)
			}
			naive := distinctPatterns(NaiveScan(pats, pl))
			if !equalInt32(want, naive) {
				t.Fatalf("payload %d: ScanSetInto %v, NaiveScan set %v", i, want, naive)
			}
			checkScanAgainstNaive(t, m, pats, pl)
		}
		// Buffer reuse must not leak state between batches: a second pass
		// over the same payloads yields the same answer.
		first := append([]int32(nil), bbuf.arena...)
		m.ScanBatch(payloads, &bbuf)
		if !equalInt32(first, bbuf.arena) {
			t.Fatalf("ScanBatch not idempotent under buffer reuse: %v then %v", first, bbuf.arena)
		}
	})
}

// fuzzPatterns frames a corpus from spec: a length byte (1..16) then
// the pattern's bytes, for up to 12 patterns.
func fuzzPatterns(spec []byte) [][]byte {
	var pats [][]byte
	for len(spec) >= 2 && len(pats) < 12 {
		n := int(spec[0])%16 + 1
		spec = spec[1:]
		if n > len(spec) {
			n = len(spec)
		}
		if n > 0 {
			pats = append(pats, spec[:n])
		}
		spec = spec[n:]
	}
	return pats
}

// FuzzScanMemoEquivalence drives PrescanBatch through a shared ScanMemo
// and requires every payload's match set to equal ScanSetInto's. Every
// payload is a sub-slice of one backing array, named by plan's
// (start, length, flags) triples, so batches repeat identities and hold
// slices with one start and different lengths; the memo holds at most
// eight entries, so batches cross capacity flushes mid-batch. Two
// engines with different corpora share the memo, as twin sensors
// would, and an engine's memoized batch must stay right after the
// other's prescan has flushed the memo. A second pass replays every
// batch, so that every identity has been met before.
func FuzzScanMemoEquivalence(f *testing.F) {
	// Repeated identities and one start at several lengths, in a memo
	// of two entries.
	f.Add([]byte("\x04root\x03cat\x06passwd"), []byte("cat /etc/passwd as root"),
		[]byte("\x00\x17\x00\x00\x17\x00\x00\x08\x00\x00\x03\x02\x04\x0b\x01\x04\x13\x03"), uint8(1))
	// A flush mid-batch: five distinct payloads into three entries.
	f.Add([]byte("\x01ab\x02abc\x00c"), []byte("abcabcabcab"),
		[]byte("\x00\x03\x00\x01\x04\x00\x02\x05\x00\x03\x06\x00\x00\x0b\x02\x00\x03\x01"), uint8(2))
	// Empty payloads, and both engines alternating over one batch shape.
	f.Add([]byte("\x02\x90\x90\x90"), []byte("\x90\x90\x90\x90\x90\x90"),
		[]byte("\x00\x00\x00\x00\x06\x02\x00\x06\x03\x01\x00\x03\x02\x02\x01"), uint8(7))

	f.Fuzz(func(t *testing.T, spec, data, plan []byte, capacity uint8) {
		pats := fuzzPatterns(spec)
		if len(data) == 0 {
			return
		}
		memo := NewScanMemo(int(capacity)%8 + 1)
		var engines [2]*SignatureEngine
		var last [2][][]byte
		// PrescanBatch reads only the matcher, so an engine without
		// rules carries the fuzzed corpus; the second engine's corpus
		// lacks the first pattern, so its entries must not answer the
		// first's lookups.
		for i := range engines {
			engines[i] = NewSignatureEngine(nil, nil)
			engines[i].matcher = NewMatcher(pats[min(i, len(pats)):])
			engines[i].ShareScans(memo)
		}
		var sbuf ScanBuf
		check := func(e *SignatureEngine, batch [][]byte) {
			t.Helper()
			if e.batch.Len() != len(batch) {
				t.Fatalf("prescan covered %d payloads, want %d", e.batch.Len(), len(batch))
			}
			for i, p := range batch {
				if got, want := e.batch.Hits(i), e.matcher.ScanSetInto(p, &sbuf); !equalInt32(got, want) {
					t.Fatalf("payload %d %q: memoized prescan %v, ScanSetInto %v", i, p, got, want)
				}
			}
		}
		// Each triple is (start, length, flags): flags bit 0 picks the
		// engine, bit 1 ends the batch after this payload.
		var batches [][][]byte
		var owner []int
		var batch [][]byte
		for len(plan) >= 3 && len(batches) < 64 {
			start := int(plan[0]) % len(data)
			n := int(plan[1]) % (len(data) - start + 1)
			batch = append(batch, data[start:start+n])
			if plan[2]&2 != 0 || len(plan) < 6 {
				batches, owner = append(batches, batch), append(owner, int(plan[2]&1))
				batch = nil
			}
			plan = plan[3:]
		}
		for pass := 0; pass < 2; pass++ {
			for b, batch := range batches {
				e := engines[owner[b]]
				if !e.PrescanBatch(batch) {
					t.Fatal("a non-reassembling engine refused to prescan")
				}
				last[owner[b]] = batch
				for i, e := range engines {
					check(e, last[i])
				}
			}
		}
	})
}

// checkScanAgainstNaive compares the automaton's full occurrence stream
// with the naive reference, order-normalized to (End, Pattern).
func checkScanAgainstNaive(t *testing.T, m *Matcher, pats [][]byte, data []byte) {
	t.Helper()
	got := m.Scan(data)
	sortMatches(got)
	want := NaiveScan(pats, data)
	if len(got) != len(want) {
		t.Fatalf("Scan found %d matches, NaiveScan %d (%v vs %v)", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("match %d: Scan %v, NaiveScan %v", i, got[i], want[i])
		}
	}
}

func sortMatches(ms []Match) {
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && (ms[j].End < ms[j-1].End ||
			(ms[j].End == ms[j-1].End && ms[j].Pattern < ms[j-1].Pattern)); j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
}

func distinctPatterns(ms []Match) []int32 {
	var out []int32
	for _, mt := range ms {
		dup := false
		for _, p := range out {
			if p == int32(mt.Pattern) {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, int32(mt.Pattern))
		}
	}
	insertionSortInt32(out)
	return out
}

func equalInt32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
