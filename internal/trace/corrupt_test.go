package trace

// Corrupt-input tests for the IDT2 stream decoder's hardening
// guarantees: decode errors name the chunk and byte offset where
// parsing stopped, and hostile length/count fields fail before they can
// size an allocation.

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"
)

// smallChunkStream encodes the fuzz seed trace at 3 records per chunk
// (multiple chunks) and returns the encoded stream plus the payload
// offset of every chunk block.
func smallChunkStream(t *testing.T) ([]byte, []int) {
	t.Helper()
	tr := fuzzSeedTrace()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, tr.Profile, tr.Seed)
	if err != nil {
		t.Fatal(err)
	}
	w.chunkRecords = 3
	for _, rec := range tr.Records {
		if err := w.Append(rec.At, rec.Pk); err != nil {
			t.Fatal(err)
		}
	}
	w.SetIncidents(tr.Incidents)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	var offs []int
	pos := headerFixedLen + len(tr.Profile)
	for pos+5 <= len(data) {
		typ := data[pos]
		blen := int(binary.BigEndian.Uint32(data[pos+1 : pos+5]))
		if typ == blockChunk {
			offs = append(offs, pos+5)
		}
		pos += 5 + blen
		if typ == blockFooter {
			break
		}
	}
	if len(offs) < 2 {
		t.Fatalf("need >= 2 chunks to test ordinal context, got %d", len(offs))
	}
	return data, offs
}

func readAll(data []byte) error {
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	for {
		c, err := rd.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		c.Release()
	}
}

func TestCorruptFirstChunkNamesChunkAndOffset(t *testing.T) {
	data, offs := smallChunkStream(t)
	// Zero the record-count varint of chunk 0: the decoder must reject
	// it and say exactly where.
	data[offs[0]] = 0
	err := readAll(data)
	if err == nil {
		t.Fatal("zeroed record count decoded cleanly")
	}
	for _, want := range []string{"chunk 0: byte 1/", "implausible record count 0"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
}

func TestCorruptLaterChunkCarriesOrdinal(t *testing.T) {
	data, offs := smallChunkStream(t)
	data[offs[1]] = 0
	rd, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	c, err := rd.Next()
	if err != nil {
		t.Fatalf("chunk 0 is intact, Next failed: %v", err)
	}
	c.Release()
	if _, err = rd.Next(); err == nil {
		t.Fatal("corrupt chunk 1 decoded cleanly")
	}
	if !strings.Contains(err.Error(), "chunk 1: byte 1/") {
		t.Fatalf("error %q does not locate chunk 1", err)
	}
}

func TestHostileRecordCountFailsBeforeAllocation(t *testing.T) {
	// A chunk claiming 1000 records in a 10-byte region must be rejected
	// by the region-capacity check before the record slab is sized.
	var buf []byte
	buf = binary.AppendUvarint(buf, 1000) // record count
	buf = binary.AppendUvarint(buf, 0)    // base timestamp
	buf = binary.AppendUvarint(buf, 0)    // arena length
	buf = binary.AppendUvarint(buf, 0)    // string table size
	buf = append(buf, make([]byte, 10)...)
	r := &Reader{intern: make(map[string]string)}
	c := &Chunk{owner: r, buf: buf}
	err := r.decodeChunk(c)
	if err == nil {
		t.Fatal("hostile record count decoded cleanly")
	}
	if !strings.Contains(err.Error(), "record count 1000 exceeds region capacity (10 bytes)") {
		t.Fatalf("unexpected error: %v", err)
	}
	if cap(c.pkts) != 0 || cap(c.Records) != 0 {
		t.Fatalf("record slab allocated for hostile count (pkts %d, records %d)",
			cap(c.pkts), cap(c.Records))
	}
}

func TestHostileStringTableSizeRejected(t *testing.T) {
	// A string-table size exceeding the bytes left in the chunk is
	// implausible on its face (every entry costs at least one byte).
	var buf []byte
	buf = binary.AppendUvarint(buf, 1)   // record count
	buf = binary.AppendUvarint(buf, 0)   // base timestamp
	buf = binary.AppendUvarint(buf, 0)   // arena length
	buf = binary.AppendUvarint(buf, 500) // string table size, 4 bytes left
	buf = append(buf, make([]byte, 4)...)
	r := &Reader{intern: make(map[string]string)}
	err := r.decodeChunk(&Chunk{owner: r, buf: buf})
	if err == nil || !strings.Contains(err.Error(), "implausible string table size 500") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestOversizedBlockLengthRejectedBeforeAllocation(t *testing.T) {
	// A block header claiming more bytes than the source holds must fail
	// on the remaining-bytes cross-check, not allocate the claimed size.
	data, offs := smallChunkStream(t)
	hdr := offs[0] - 5
	binary.BigEndian.PutUint32(data[hdr+1:hdr+5], 2<<20)
	err := readAll(data)
	if err == nil {
		t.Fatal("oversized block length decoded cleanly")
	}
	if !strings.Contains(err.Error(), "exceeds remaining") {
		t.Fatalf("error %q is not the pre-allocation rejection", err)
	}
}

func TestHostileIncidentCountRejected(t *testing.T) {
	// An incident count far beyond what the block could encode fails the
	// capacity check even when below the absolute cap.
	payload := binary.AppendUvarint(nil, 100000)
	r := &Reader{}
	err := r.parseIncidents(payload)
	if err == nil || !strings.Contains(err.Error(), "exceeds block capacity") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestTimelineOverflowRejected(t *testing.T) {
	// Record times past the clock's range must fail decode: a base above
	// the largest time, or a delta that wraps the running time negative,
	// would otherwise hand a replay a record before its predecessor.
	record := func(buf []byte, delta uint64) []byte {
		buf = binary.AppendUvarint(buf, delta)
		buf = binary.AppendUvarint(buf, 1) // seq
		buf = binary.AppendUvarint(buf, 0) // sent
		buf = append(buf, make([]byte, 16)...)
		return binary.AppendUvarint(buf, 0) // payload length
	}
	chunk := func(base, delta uint64) []byte {
		var buf []byte
		buf = binary.AppendUvarint(buf, 2)    // record count
		buf = binary.AppendUvarint(buf, base) // base timestamp
		buf = binary.AppendUvarint(buf, 0)    // arena length
		buf = binary.AppendUvarint(buf, 0)    // string table size
		return record(record(buf, 0), delta)
	}
	for _, c := range []struct {
		name        string
		base, delta uint64
		want        string
	}{
		{"base", math.MaxInt64 + 1, 0, "base timestamp 9223372036854775808 out of range"},
		{"delta", 1000, math.MaxInt64 - 999, "record 1 delta 9223372036854774808 overflows the timeline"},
	} {
		r := &Reader{intern: make(map[string]string)}
		err := r.decodeChunk(&Chunk{owner: r, buf: chunk(c.base, c.delta)})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: got %v, want %q", c.name, err, c.want)
		}
	}
	// The largest time itself still decodes.
	r := &Reader{intern: make(map[string]string)}
	c := &Chunk{owner: r, buf: chunk(1000, math.MaxInt64-1000)}
	if err := r.decodeChunk(c); err != nil || c.LastAt() != math.MaxInt64 {
		t.Fatalf("decode at the largest time: %v (last %v)", err, c.LastAt())
	}
}
