// IDT2: the streaming chunked binary trace encoding, and the only trace
// format the harness reads.
//
// IDT2 groups records into fixed-size chunks (~4096 records) so that
// trace I/O is O(chunk), not O(capture): each chunk carries varint-delta
// timestamps, a per-chunk string table for ground-truth labels, and one
// contiguous payload arena that decoded packets slice into — zero payload
// copies and a constant number of allocations per chunk instead of per
// packet. After the chunks come the ground-truth incident block, a
// footer with whole-trace summary statistics and an index of every
// chunk's offset and time bounds, and a fixed-size trailer that locates
// the footer. The Reader opens a seekable source at its tail, so a
// streaming consumer can size its testbed and read the ground truth
// before the first chunk decodes. It checks the footer's statistics
// rather than trusting them: host counts at open, and the rest against
// the body when a scan reaches its end. The index is written for the
// format's sake; no reader seeks by it.
//
// See DESIGN.md §8 for the wire layout and the reader's one-goroutine
// contract.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"time"

	"repro/internal/attack"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/packet"
	"repro/internal/simtime"
)

const (
	magic2   = 0x49445432 // "IDT2"
	version2 = 2
	// trailerMagic closes the fixed-size trailer that locates the footer.
	trailerMagic = 0x32544449 // "2TDI"

	// DefaultChunkRecords is the writer's records-per-chunk target.
	DefaultChunkRecords = 4096

	blockChunk     = 1
	blockIncidents = 2
	blockFooter    = 3

	// Decode-side hardening caps: a corrupt or adversarial file must fail
	// with an error before it can demand a huge allocation.
	maxBlockLen     = 1 << 26 // 64 MiB per block
	maxChunkRecords = 1 << 17
	maxChunkStrings = 1 << 16
	maxIncidents    = 1 << 20

	// minRecordEnc is the smallest possible wire encoding of one chunk
	// record: three 1-byte varints (delta, seq, sent), 16 fixed bytes,
	// and a 1-byte payload length.
	minRecordEnc = 20

	// minIncidentEnc is the smallest possible wire encoding of one
	// incident: two 1-byte string lengths, three 1-byte varints, and 8
	// fixed address bytes.
	minIncidentEnc = 13

	headerFixedLen = 4 + 4 + 2 + 8 // magic, version, profile len, seed (profile bytes vary)
	footerFixedLen = 8 + 6*8 + 3*4 // incident offset, six u64 stats, two host counts, chunk count
	indexEntryLen  = 8 + 4 + 8 + 8 // a chunk's offset, record count, first and last record times
	trailerLen     = 12            // footer offset u64 + trailer magic u32
)

// StreamStats are whole-trace summary statistics accumulated by the
// Writer and recovered from the footer by the Reader before any chunk
// decodes. ClusterHosts/ExternalHosts are the smallest host counts
// whose testbed address plan (netsim.ClusterAddr/ExternalAddr) reaches
// every plan address in the trace, so a streaming consumer can size its
// topology without a pre-scan pass over the records. Addresses outside
// the plan do not count.
type StreamStats struct {
	Packets        uint64
	Bytes          uint64
	MaliciousPkts  uint64
	PayloadPackets uint64
	FirstAt        time.Duration
	LastAt         time.Duration
	Chunks         int
	ClusterHosts   int
	ExternalHosts  int
}

// Duration returns the trace's time span.
func (s StreamStats) Duration() time.Duration {
	if s.Packets == 0 {
		return 0
	}
	return s.LastAt - s.FirstAt
}

// coverHost grows the host counts until the address plan reaches a.
func (s *StreamStats) coverHost(a packet.Addr) {
	if i, ok := netsim.ClusterIndex(a); ok {
		s.ClusterHosts = max(s.ClusterHosts, i+1)
	} else if i, ok := netsim.ExternalIndex(a); ok {
		s.ExternalHosts = max(s.ExternalHosts, i+1)
	}
}

// ---- Writer ----

// Writer encodes a trace incrementally in the IDT2 format. Records
// accumulate into chunks of ChunkRecords and each full chunk is encoded
// and flushed immediately, so writer memory is O(chunk) regardless of
// capture length. Close writes the final partial chunk, the incident
// sidecar, the footer and the trailer; the stream of a Writer that is
// never Closed has no footer, and no Reader opens it.
type Writer struct {
	bw  *bufio.Writer
	off uint64 // bytes committed to bw, = next block's file offset

	profile string
	seed    int64

	// ChunkRecords is the records-per-chunk target. It may be set before
	// the first Append; afterwards it is fixed.
	chunkRecords int

	pend      []Record // records of the open chunk (packets borrowed until flush)
	lastAt    time.Duration
	stats     StreamStats
	index     []byte // footer chunk index, indexEntryLen bytes per chunk
	incidents []attack.Incident

	strIdx map[string]uint64 // per-chunk string table (reset at flush)
	strs   []string
	enc    []byte // reusable chunk encode buffer
	closed bool
	err    error
}

// NewWriter starts an IDT2 stream on w, writing the header immediately.
func NewWriter(w io.Writer, profile string, seed int64) (*Writer, error) {
	if len(profile) > 0xFFFF {
		return nil, fmt.Errorf("trace: profile string too long (%d)", len(profile))
	}
	sw := &Writer{
		bw:           bufio.NewWriterSize(w, 256<<10),
		profile:      profile,
		seed:         seed,
		chunkRecords: DefaultChunkRecords,
		strIdx:       make(map[string]uint64),
	}
	hdr := make([]byte, 0, headerFixedLen+len(profile))
	hdr = binary.BigEndian.AppendUint32(hdr, magic2)
	hdr = binary.BigEndian.AppendUint32(hdr, version2)
	hdr = binary.BigEndian.AppendUint16(hdr, uint16(len(profile)))
	hdr = append(hdr, profile...)
	hdr = binary.BigEndian.AppendUint64(hdr, uint64(seed))
	if _, err := sw.bw.Write(hdr); err != nil {
		return nil, err
	}
	sw.off = uint64(len(hdr))
	return sw, nil
}

// SetIncidents attaches the ground-truth sidecar, written at Close.
func (w *Writer) SetIncidents(incs []attack.Incident) { w.incidents = incs }

// Stats returns the running whole-trace statistics.
func (w *Writer) Stats() StreamStats { return w.stats }

// Append adds one record, enforcing time order. The packet (and its
// payload) is borrowed until the chunk holding it flushes; callers must
// not mutate it before then.
func (w *Writer) Append(at time.Duration, p *packet.Packet) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return errors.New("trace: append after Close")
	}
	if at < 0 || p.Sent < 0 {
		return fmt.Errorf("trace: negative time (at=%v sent=%v)", at, p.Sent)
	}
	if w.stats.Packets > 0 && at < w.lastAt {
		return fmt.Errorf("trace: record at %v violates time order (last %v)", at, w.lastAt)
	}
	if w.stats.Packets == 0 {
		w.stats.FirstAt = at
	}
	w.lastAt = at
	w.stats.LastAt = at
	w.stats.Packets++
	w.stats.Bytes += uint64(p.WireLen())
	if p.Truth.Malicious {
		w.stats.MaliciousPkts++
	}
	if len(p.Payload) > 0 {
		w.stats.PayloadPackets++
	}
	w.stats.coverHost(p.Src)
	w.stats.coverHost(p.Dst)
	w.pend = append(w.pend, Record{At: at, Pk: p})
	if len(w.pend) >= w.chunkRecords {
		w.err = w.flushChunk()
	}
	return w.err
}

// internString returns the open chunk's string-table index for s.
func (w *Writer) internString(s string) (uint64, error) {
	if i, ok := w.strIdx[s]; ok {
		return i, nil
	}
	if len(w.strs) >= maxChunkStrings {
		return 0, errors.New("trace: chunk string table overflow")
	}
	i := uint64(len(w.strs))
	w.strIdx[s] = i
	w.strs = append(w.strs, s)
	return i, nil
}

// flushChunk encodes and writes the open chunk.
func (w *Writer) flushChunk() error {
	if len(w.pend) == 0 {
		return nil
	}
	recs := w.pend
	// Build the string table and arena length in one pre-pass.
	w.strs = w.strs[:0]
	for k := range w.strIdx {
		delete(w.strIdx, k)
	}
	var arenaLen uint64
	for _, r := range recs {
		arenaLen += uint64(len(r.Pk.Payload))
		if r.Pk.Truth.Malicious {
			if _, err := w.internString(r.Pk.Truth.AttackID); err != nil {
				return err
			}
			if _, err := w.internString(r.Pk.Truth.Technique); err != nil {
				return err
			}
		}
	}

	buf := w.enc[:0]
	buf = binary.AppendUvarint(buf, uint64(len(recs)))
	base := recs[0].At
	buf = binary.AppendUvarint(buf, uint64(base))
	buf = binary.AppendUvarint(buf, arenaLen)
	buf = binary.AppendUvarint(buf, uint64(len(w.strs)))
	for _, s := range w.strs {
		buf = binary.AppendUvarint(buf, uint64(len(s)))
		buf = append(buf, s...)
	}
	prev := base
	for _, r := range recs {
		p := r.Pk
		buf = binary.AppendUvarint(buf, uint64(r.At-prev))
		prev = r.At
		buf = binary.AppendUvarint(buf, p.Seq)
		buf = binary.AppendUvarint(buf, uint64(p.Sent))
		buf = binary.BigEndian.AppendUint32(buf, uint32(p.Src))
		buf = binary.BigEndian.AppendUint32(buf, uint32(p.Dst))
		buf = binary.BigEndian.AppendUint16(buf, p.SrcPort)
		buf = binary.BigEndian.AppendUint16(buf, p.DstPort)
		buf = append(buf, byte(p.Proto), byte(p.Flags), p.TTL)
		if p.Truth.Malicious {
			buf = append(buf, 1)
			ai, _ := w.strIdx[p.Truth.AttackID]
			ti, _ := w.strIdx[p.Truth.Technique]
			buf = binary.AppendUvarint(buf, ai)
			buf = binary.AppendUvarint(buf, ti)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.AppendUvarint(buf, uint64(len(p.Payload)))
	}
	for _, r := range recs {
		buf = append(buf, r.Pk.Payload...)
	}
	w.enc = buf
	if len(buf) > maxBlockLen {
		return fmt.Errorf("trace: chunk block %d exceeds %d bytes", len(buf), maxBlockLen)
	}

	w.index = binary.BigEndian.AppendUint64(w.index, w.off)
	w.index = binary.BigEndian.AppendUint32(w.index, uint32(len(recs)))
	w.index = binary.BigEndian.AppendUint64(w.index, uint64(recs[0].At))
	w.index = binary.BigEndian.AppendUint64(w.index, uint64(recs[len(recs)-1].At))
	w.stats.Chunks++
	if err := w.writeBlock(blockChunk, buf); err != nil {
		return err
	}
	w.pend = w.pend[:0]
	return nil
}

// writeBlock frames one block and tracks the file offset.
func (w *Writer) writeBlock(typ byte, payload []byte) error {
	var hdr [5]byte
	hdr[0] = typ
	binary.BigEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(payload); err != nil {
		return err
	}
	w.off += uint64(len(hdr)) + uint64(len(payload))
	return nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// Close flushes the final partial chunk and writes the incident block,
// the footer index, and the locating trailer.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	w.closed = true
	if err := w.flushChunk(); err != nil {
		w.err = err
		return err
	}

	// Incident sidecar block.
	incOff := w.off
	buf := w.enc[:0]
	buf = binary.AppendUvarint(buf, uint64(len(w.incidents)))
	for _, in := range w.incidents {
		buf = appendString(buf, in.ID)
		buf = appendString(buf, in.Technique)
		buf = binary.AppendUvarint(buf, uint64(in.Start))
		buf = binary.AppendUvarint(buf, uint64(in.Duration))
		buf = binary.AppendUvarint(buf, uint64(in.Packets))
		buf = binary.BigEndian.AppendUint32(buf, uint32(in.Attacker))
		buf = binary.BigEndian.AppendUint32(buf, uint32(in.Victim))
	}
	w.enc = buf
	if err := w.writeBlock(blockIncidents, buf); err != nil {
		w.err = err
		return err
	}

	// Footer: incidents offset, stats, chunk index.
	footOff := w.off
	buf = w.enc[:0]
	buf = binary.BigEndian.AppendUint64(buf, incOff)
	buf = binary.BigEndian.AppendUint64(buf, w.stats.Packets)
	buf = binary.BigEndian.AppendUint64(buf, w.stats.Bytes)
	buf = binary.BigEndian.AppendUint64(buf, w.stats.MaliciousPkts)
	buf = binary.BigEndian.AppendUint64(buf, w.stats.PayloadPackets)
	buf = binary.BigEndian.AppendUint64(buf, uint64(w.stats.FirstAt))
	buf = binary.BigEndian.AppendUint64(buf, uint64(w.stats.LastAt))
	buf = binary.BigEndian.AppendUint32(buf, uint32(w.stats.ClusterHosts))
	buf = binary.BigEndian.AppendUint32(buf, uint32(w.stats.ExternalHosts))
	buf = binary.BigEndian.AppendUint32(buf, uint32(w.stats.Chunks))
	buf = append(buf, w.index...)
	w.enc = buf
	if err := w.writeBlock(blockFooter, buf); err != nil {
		w.err = err
		return err
	}
	var trailer [trailerLen]byte
	binary.BigEndian.PutUint64(trailer[0:8], footOff)
	binary.BigEndian.PutUint32(trailer[8:12], trailerMagic)
	if _, err := w.bw.Write(trailer[:]); err != nil {
		w.err = err
		return err
	}
	if err := w.bw.Flush(); err != nil {
		w.err = err
		return err
	}
	return nil
}

// WriteStream serializes the whole trace in the IDT2 format.
func (t *Trace) WriteStream(w io.Writer) error {
	sw, err := NewWriter(w, t.Profile, t.Seed)
	if err != nil {
		return err
	}
	for _, r := range t.Records {
		if err := sw.Append(r.At, r.Pk); err != nil {
			return err
		}
	}
	sw.SetIncidents(t.Incidents)
	return sw.Close()
}

// ---- Reader ----

// Chunk is one decoded group of records. Records[i].Pk points into a
// chunk-owned packet slab and payloads alias the chunk's raw block
// buffer (zero-copy). Release returns the chunk's buffers to the
// reader's freelist; after Release, no packet of the chunk — including
// its payload bytes — may be touched again. A chunk that is never
// Released simply stays live until the GC collects it.
type Chunk struct {
	Records []Record
	pkts    []packet.Packet
	buf     []byte
	owner   *Reader
}

// FirstAt returns the chunk's first record time.
func (c *Chunk) FirstAt() time.Duration { return c.Records[0].At }

// LastAt returns the chunk's last record time.
func (c *Chunk) LastAt() time.Duration { return c.Records[len(c.Records)-1].At }

// Release recycles the chunk's buffers through the owning reader, on
// the reader's goroutine.
func (c *Chunk) Release() {
	if c.owner != nil {
		c.owner.putChunk(c)
	}
}

// Reader streams an IDT2 trace chunk by chunk with O(chunk) memory.
// NewReader loads the footer and the incident block before any chunk
// decodes, so Stats and Incidents are known up front; Next decodes the
// body from its first chunk and, at its end, checks the footer's
// statistics against the records it held.
//
// A Reader and its chunks belong to one goroutine: Next and
// Chunk.Release must not run concurrently.
type Reader struct {
	br *bufio.Reader
	// off is the stream offset of the next block Next reads; the chunk
	// body ends at bodyEnd, where the incident block starts.
	off, bodyEnd int64

	profile string
	seed    int64

	stats     StreamStats
	incidents []attack.Incident

	intern     map[string]string
	strScratch []string
	free       []*Chunk

	// seen recomputes the footer's statistics from the decoded records;
	// seen.Chunks counts the chunks decoded so far.
	seen StreamStats

	// Telemetry instruments; nil (free no-ops) unless SetObs is called.
	cChunks, cRecords, cBytes *obs.Counter
	hDecode                   *obs.Histogram
}

// SetObs wires decoder telemetry under "trace.decoder.": chunk, record,
// and byte counters plus a wall-clock per-chunk decode-time histogram.
// Call before the first Next; a nil registry leaves the reader
// uninstrumented at zero cost.
func (r *Reader) SetObs(reg *obs.Registry) {
	if reg == nil {
		return
	}
	r.cChunks = reg.Counter("trace.decoder.chunks")
	r.cRecords = reg.Counter("trace.decoder.records")
	r.cBytes = reg.Counter("trace.decoder.bytes")
	r.hDecode = reg.Histogram("trace.decoder.decode_wall_ns", obs.ClockWall)
}

// NewReader opens the IDT2 stream that starts at rs's current position
// and runs to its end. It reads the header, the trailer, the footer and
// the incident block, and fails if any of them is missing or malformed
// or if the footer claims host counts the testbed address plan cannot
// hold.
func NewReader(rs io.ReadSeeker) (*Reader, error) {
	base, err := rs.Seek(0, io.SeekCurrent)
	if err != nil {
		return nil, err
	}
	r := &Reader{intern: make(map[string]string)}
	if err := r.readHeader(rs); err != nil {
		return nil, err
	}
	r.off = int64(headerFixedLen + len(r.profile))
	if err := r.loadFooter(rs, base); err != nil {
		return nil, err
	}
	if err := r.stats.checkHosts(); err != nil {
		return nil, err
	}
	if _, err := rs.Seek(base+r.off, io.SeekStart); err != nil {
		return nil, err
	}
	r.br = bufio.NewReaderSize(rs, 256<<10)
	return r, nil
}

func (r *Reader) readHeader(rd io.Reader) error {
	var hdr [10]byte
	if _, err := io.ReadFull(rd, hdr[:]); err != nil {
		return fmt.Errorf("trace: stream header: %w", err)
	}
	if binary.BigEndian.Uint32(hdr[0:4]) != magic2 {
		return errors.New("trace: bad stream magic")
	}
	if v := binary.BigEndian.Uint32(hdr[4:8]); v != version2 {
		return fmt.Errorf("trace: unsupported stream version %d", v)
	}
	plen := int(binary.BigEndian.Uint16(hdr[8:10]))
	pb := make([]byte, plen+8)
	if _, err := io.ReadFull(rd, pb); err != nil {
		return fmt.Errorf("trace: stream header: %w", err)
	}
	r.profile = string(pb[:plen])
	r.seed = int64(binary.BigEndian.Uint64(pb[plen:]))
	return nil
}

// loadFooter reads the stream's tail, whose parts locate one another:
// the trailer in the last trailerLen bytes points at the footer block,
// which ends where the trailer starts, and the footer points at the
// incident block, which ends where the footer starts. Everything
// between the header and the incident block is the chunk body. The
// footer's chunk index is checked for length only; nothing seeks by it.
func (r *Reader) loadFooter(rs io.ReadSeeker, base int64) error {
	end, err := rs.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	end -= base // wire offsets are relative to the stream's start
	if end < r.off+trailerLen {
		return errors.New("trace: no footer trailer")
	}
	var tr [trailerLen]byte
	if _, err := rs.Seek(base+end-trailerLen, io.SeekStart); err != nil {
		return err
	}
	if _, err := io.ReadFull(rs, tr[:]); err != nil {
		return fmt.Errorf("trace: trailer: %w", err)
	}
	if binary.BigEndian.Uint32(tr[8:12]) != trailerMagic {
		return errors.New("trace: no footer trailer")
	}
	// block reads the block of type typ at off, which must end exactly
	// where the next part of the tail starts.
	block := func(typ byte, name string, off, next int64) ([]byte, error) {
		if off < r.off || off > next-5 {
			return nil, fmt.Errorf("trace: %s offset %d out of range", name, off)
		}
		if _, err := rs.Seek(base+off, io.SeekStart); err != nil {
			return nil, err
		}
		var hdr [5]byte
		if _, err := io.ReadFull(rs, hdr[:]); err != nil {
			return nil, fmt.Errorf("trace: %s block: %w", name, err)
		}
		if hdr[0] != typ {
			return nil, fmt.Errorf("trace: %s block has type %d", name, hdr[0])
		}
		blen := int64(binary.BigEndian.Uint32(hdr[1:5]))
		if blen != next-off-5 {
			return nil, fmt.Errorf("trace: %s block claims %d bytes, %d precede the next block", name, blen, next-off-5)
		}
		if blen > maxBlockLen {
			return nil, fmt.Errorf("trace: block length %d exceeds limit", blen)
		}
		buf := make([]byte, blen)
		if _, err := io.ReadFull(rs, buf); err != nil {
			return nil, fmt.Errorf("trace: %s block: %w", name, err)
		}
		return buf, nil
	}
	footOff := int64(binary.BigEndian.Uint64(tr[0:8]))
	p, err := block(blockFooter, "footer", footOff, end-trailerLen)
	if err != nil {
		return err
	}
	if len(p) < footerFixedLen {
		return errors.New("trace: short footer")
	}
	incOff := int64(binary.BigEndian.Uint64(p[0:8]))
	p = p[8:]
	r.stats.Packets = binary.BigEndian.Uint64(p[0:8])
	r.stats.Bytes = binary.BigEndian.Uint64(p[8:16])
	r.stats.MaliciousPkts = binary.BigEndian.Uint64(p[16:24])
	r.stats.PayloadPackets = binary.BigEndian.Uint64(p[24:32])
	r.stats.FirstAt = time.Duration(binary.BigEndian.Uint64(p[32:40]))
	r.stats.LastAt = time.Duration(binary.BigEndian.Uint64(p[40:48]))
	r.stats.ClusterHosts = int(binary.BigEndian.Uint32(p[48:52]))
	r.stats.ExternalHosts = int(binary.BigEndian.Uint32(p[52:56]))
	nchunks := binary.BigEndian.Uint32(p[56:60])
	if uint64(len(p[60:])) != uint64(nchunks)*indexEntryLen {
		return errors.New("trace: footer index length mismatch")
	}
	r.stats.Chunks = int(nchunks)
	p, err = block(blockIncidents, "incident", incOff, footOff)
	if err != nil {
		return err
	}
	if err := r.parseIncidents(p); err != nil {
		return err
	}
	r.bodyEnd = incOff
	return nil
}

// Profile returns the trace's generation profile name.
func (r *Reader) Profile() string { return r.profile }

// Seed returns the trace's generation seed.
func (r *Reader) Seed() int64 { return r.seed }

// Stats returns the footer's whole-trace statistics. Host counts are
// bounded at open; a scan that reaches io.EOF has checked every
// statistic against the body.
func (r *Reader) Stats() StreamStats { return r.stats }

// Incidents returns the ground-truth sidecar.
func (r *Reader) Incidents() []attack.Incident { return r.incidents }

// ChunksRead reports how many chunks have been decoded so far.
func (r *Reader) ChunksRead() int { return r.seen.Chunks }

// Next returns the next decoded chunk, or io.EOF once the body is
// exhausted and the footer's statistics match it. Record times never
// decrease across the whole scan: a chunk that starts before its
// predecessor's last record fails, so a replay can feed the records to
// a lane (see ReplayReader).
func (r *Reader) Next() (*Chunk, error) {
	if r.off == r.bodyEnd {
		if err := r.checkFooter(); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
	rem := r.bodyEnd - r.off - 5 // body bytes left after this block's header
	if rem < 0 {
		return nil, fmt.Errorf("trace: %d stray bytes before the incident block", r.bodyEnd-r.off)
	}
	var hdr [5]byte
	if _, err := io.ReadFull(r.br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: block header: %w", err)
	}
	if hdr[0] != blockChunk {
		return nil, fmt.Errorf("trace: block type %d in the chunk body", hdr[0])
	}
	blen := int64(binary.BigEndian.Uint32(hdr[1:5]))
	if blen > maxBlockLen {
		return nil, fmt.Errorf("trace: block length %d exceeds limit", blen)
	}
	// A corrupt length fails here, against the body's known extent,
	// instead of allocating the claimed size.
	if blen > rem {
		return nil, fmt.Errorf("trace: block length %d exceeds remaining %d bytes", blen, rem)
	}
	c := r.getChunk(int(blen))
	if _, err := io.ReadFull(r.br, c.buf); err != nil {
		return nil, fmt.Errorf("trace: chunk body: %w", err)
	}
	r.off += 5 + blen
	var t0 time.Time
	if r.hDecode != nil {
		t0 = time.Now()
	}
	if err := r.decodeChunk(c); err != nil {
		return nil, err
	}
	if r.hDecode != nil {
		r.hDecode.Observe(int64(time.Since(t0)))
	}
	if r.seen.Packets > 0 && c.FirstAt() < r.seen.LastAt {
		return nil, fmt.Errorf("trace: chunk %d starts at %v, before the previous chunk's last record at %v",
			r.seen.Chunks, c.FirstAt(), r.seen.LastAt)
	}
	r.tally(c)
	r.cChunks.Inc()
	r.cRecords.Add(uint64(len(c.Records)))
	r.cBytes.Add(uint64(blen) + 5)
	return c, nil
}

// tally folds a decoded chunk into the recomputed footer statistics,
// each derived from the records as the Writer derives it.
func (r *Reader) tally(c *Chunk) {
	s := &r.seen
	if s.Packets == 0 {
		s.FirstAt = c.FirstAt()
	}
	s.LastAt = c.LastAt()
	s.Packets += uint64(len(c.Records))
	s.Chunks++
	for _, rec := range c.Records {
		p := rec.Pk
		s.Bytes += uint64(p.WireLen())
		if p.Truth.Malicious {
			s.MaliciousPkts++
		}
		if len(p.Payload) > 0 {
			s.PayloadPackets++
		}
		s.coverHost(p.Src)
		s.coverHost(p.Dst)
	}
}

// checkFooter fails a scan whose footer disagrees with the body it
// indexes: every statistic a consumer sizes, aligns or reports a replay
// by must match what the records actually hold.
func (r *Reader) checkFooter() error {
	claim, body := r.stats, r.seen
	switch {
	case claim.Packets != body.Packets:
		return fmt.Errorf("trace: footer claims %d packets, body holds %d", claim.Packets, body.Packets)
	case claim.FirstAt != body.FirstAt:
		return fmt.Errorf("trace: footer claims first record at %v, body starts at %v", claim.FirstAt, body.FirstAt)
	case claim.LastAt != body.LastAt:
		return fmt.Errorf("trace: footer claims last record at %v, body ends at %v", claim.LastAt, body.LastAt)
	case claim.Bytes != body.Bytes:
		return fmt.Errorf("trace: footer claims %d bytes, body holds %d", claim.Bytes, body.Bytes)
	case claim.MaliciousPkts != body.MaliciousPkts:
		return fmt.Errorf("trace: footer claims %d malicious packets, body holds %d", claim.MaliciousPkts, body.MaliciousPkts)
	case claim.PayloadPackets != body.PayloadPackets:
		return fmt.Errorf("trace: footer claims %d payload packets, body holds %d", claim.PayloadPackets, body.PayloadPackets)
	case claim.Chunks != body.Chunks:
		return fmt.Errorf("trace: footer claims %d chunks, body holds %d", claim.Chunks, body.Chunks)
	case claim.ClusterHosts != body.ClusterHosts:
		return fmt.Errorf("trace: footer claims %d cluster hosts, body addresses %d", claim.ClusterHosts, body.ClusterHosts)
	case claim.ExternalHosts != body.ExternalHosts:
		return fmt.Errorf("trace: footer claims %d external hosts, body addresses %d", claim.ExternalHosts, body.ExternalHosts)
	}
	return nil
}

// checkHosts rejects host counts the testbed address plan cannot
// address, before a consumer sizes a topology from them.
func (s StreamStats) checkHosts() error {
	switch {
	case s.ClusterHosts > netsim.MaxPlanHosts:
		return fmt.Errorf("trace: footer claims %d cluster hosts, the address plan holds %d", s.ClusterHosts, netsim.MaxPlanHosts)
	case s.ExternalHosts > netsim.MaxPlanHosts:
		return fmt.Errorf("trace: footer claims %d external hosts, the address plan holds %d", s.ExternalHosts, netsim.MaxPlanHosts)
	}
	return nil
}

func (r *Reader) parseIncidents(payload []byte) error {
	p := payload
	n, p, err := readUvarint(p)
	if err != nil {
		return fmt.Errorf("trace: incident count: %w", err)
	}
	if n > maxIncidents {
		return fmt.Errorf("trace: implausible incident count %d", n)
	}
	if n*minIncidentEnc > uint64(len(p)) {
		return fmt.Errorf("trace: incident count %d exceeds block capacity (%d bytes)", n, len(p))
	}
	incs := make([]attack.Incident, 0, min(n, 4096))
	for i := uint64(0); i < n; i++ {
		var in attack.Incident
		if in.ID, p, err = readString(p); err != nil {
			return fmt.Errorf("trace: incident %d id: %w", i, err)
		}
		if in.Technique, p, err = readString(p); err != nil {
			return fmt.Errorf("trace: incident %d technique: %w", i, err)
		}
		var v uint64
		if v, p, err = readUvarint(p); err != nil {
			return err
		}
		in.Start = time.Duration(v)
		if v, p, err = readUvarint(p); err != nil {
			return err
		}
		in.Duration = time.Duration(v)
		if v, p, err = readUvarint(p); err != nil {
			return err
		}
		in.Packets = int(v)
		if len(p) < 8 {
			return errors.New("trace: truncated incident")
		}
		in.Attacker = packet.Addr(binary.BigEndian.Uint32(p[0:4]))
		in.Victim = packet.Addr(binary.BigEndian.Uint32(p[4:8]))
		p = p[8:]
		incs = append(incs, in)
	}
	r.incidents = incs
	return nil
}

// getChunk takes a chunk from the freelist (or allocates one) with a
// buffer of at least blen bytes.
func (r *Reader) getChunk(blen int) *Chunk {
	var c *Chunk
	if n := len(r.free); n > 0 {
		c = r.free[n-1]
		r.free[n-1] = nil
		r.free = r.free[:n-1]
	} else {
		c = &Chunk{owner: r}
	}
	if cap(c.buf) < blen {
		c.buf = make([]byte, blen)
	}
	c.buf = c.buf[:blen]
	return c
}

// putChunk returns a chunk's buffers to the freelist (bounded).
func (r *Reader) putChunk(c *Chunk) {
	c.Records = c.Records[:0]
	c.pkts = c.pkts[:0]
	if len(r.free) < 4 {
		r.free = append(r.free, c)
	}
}

// decodeChunk parses c.buf in place. Steady-state cost is zero
// allocations per chunk: the packet slab and record slice are recycled
// with the chunk, payloads alias the block buffer, and ground-truth
// strings intern through the reader's table. Decode failures carry the
// chunk's ordinal in the stream and the byte offset within the chunk
// where parsing stopped, so a corrupt capture points at itself.
func (r *Reader) decodeChunk(c *Chunk) error {
	rest, err := r.decodeChunkBody(c)
	if err != nil {
		return fmt.Errorf("trace: chunk %d: byte %d/%d: %w",
			r.seen.Chunks, len(c.buf)-len(rest), len(c.buf), err)
	}
	return nil
}

// decodeChunkBody does the parse. On failure it returns the unconsumed
// remainder alongside the error so decodeChunk can report how far it
// got; the remainder is meaningless on success.
func (r *Reader) decodeChunkBody(c *Chunk) ([]byte, error) {
	p := c.buf
	count, p, err := readUvarint(p)
	if err != nil {
		return p, fmt.Errorf("record count: %w", err)
	}
	if count == 0 || count > maxChunkRecords {
		return p, fmt.Errorf("implausible record count %d", count)
	}
	baseU, p, err := readUvarint(p)
	if err != nil {
		return p, fmt.Errorf("base timestamp: %w", err)
	}
	if baseU > math.MaxInt64 {
		return p, fmt.Errorf("base timestamp %d out of range", baseU)
	}
	arenaLen, p, err := readUvarint(p)
	if err != nil {
		return p, fmt.Errorf("arena length: %w", err)
	}
	if arenaLen > uint64(len(p)) {
		return p, fmt.Errorf("arena length %d exceeds block", arenaLen)
	}
	nstr, p, err := readUvarint(p)
	if err != nil {
		return p, fmt.Errorf("string table size: %w", err)
	}
	if nstr > maxChunkStrings || nstr > uint64(len(p)) {
		return p, fmt.Errorf("implausible string table size %d", nstr)
	}
	// The string table decodes into a reader-owned scratch slice of
	// interned strings (no allocation for strings seen in prior chunks).
	strs := r.strScratch[:0]
	for i := uint64(0); i < nstr; i++ {
		var b []byte
		b, p, err = readBytes(p)
		if err != nil {
			return p, fmt.Errorf("string table entry %d: %w", i, err)
		}
		s, ok := r.intern[string(b)]
		if !ok {
			s = string(b)
			r.intern[s] = s
		}
		strs = append(strs, s)
	}
	r.strScratch = strs

	// Records region ends where the arena begins. Splitting before the
	// slab allocation lets the record count be checked against the bytes
	// actually present, so a hostile count fails before it can size an
	// allocation.
	if uint64(len(p)) < arenaLen {
		return p, errors.New("truncated chunk")
	}
	arena := p[uint64(len(p))-arenaLen:]
	p = p[:uint64(len(p))-arenaLen]
	if count*minRecordEnc > uint64(len(p)) {
		return p, fmt.Errorf("record count %d exceeds region capacity (%d bytes)", count, len(p))
	}

	n := int(count)
	if cap(c.pkts) < n {
		c.pkts = make([]packet.Packet, n)
	}
	c.pkts = c.pkts[:n]
	if cap(c.Records) < n {
		c.Records = make([]Record, n)
	}
	c.Records = c.Records[:n]

	at := time.Duration(baseU)
	var arenaOff uint64
	for i := 0; i < n; i++ {
		var v uint64
		if v, p, err = readUvarint(p); err != nil {
			return p, fmt.Errorf("record %d delta: %w", i, err)
		}
		if i > 0 {
			if v > uint64(math.MaxInt64-at) {
				return p, fmt.Errorf("record %d delta %d overflows the timeline", i, v)
			}
			at += time.Duration(v)
		} else if v != 0 {
			return p, errors.New("nonzero first delta")
		}
		pk := &c.pkts[i]
		*pk = packet.Packet{}
		if pk.Seq, p, err = readUvarint(p); err != nil {
			return p, fmt.Errorf("record %d seq: %w", i, err)
		}
		if v, p, err = readUvarint(p); err != nil {
			return p, fmt.Errorf("record %d sent: %w", i, err)
		}
		pk.Sent = time.Duration(v)
		if len(p) < 16 {
			return p, fmt.Errorf("truncated record %d", i)
		}
		pk.Src = packet.Addr(binary.BigEndian.Uint32(p[0:4]))
		pk.Dst = packet.Addr(binary.BigEndian.Uint32(p[4:8]))
		pk.SrcPort = binary.BigEndian.Uint16(p[8:10])
		pk.DstPort = binary.BigEndian.Uint16(p[10:12])
		pk.Proto = packet.Proto(p[12])
		pk.Flags = packet.TCPFlags(p[13])
		pk.TTL = p[14]
		mal := p[15]
		p = p[16:]
		if mal == 1 {
			pk.Truth.Malicious = true
			if v, p, err = readUvarint(p); err != nil {
				return p, fmt.Errorf("record %d attack id: %w", i, err)
			}
			if v >= uint64(len(strs)) {
				return p, fmt.Errorf("record %d attack id index %d out of range", i, v)
			}
			pk.Truth.AttackID = strs[v]
			if v, p, err = readUvarint(p); err != nil {
				return p, fmt.Errorf("record %d technique: %w", i, err)
			}
			if v >= uint64(len(strs)) {
				return p, fmt.Errorf("record %d technique index %d out of range", i, v)
			}
			pk.Truth.Technique = strs[v]
		} else if mal != 0 {
			return p, fmt.Errorf("record %d bad malicious flag %d", i, mal)
		}
		var plen uint64
		if plen, p, err = readUvarint(p); err != nil {
			return p, fmt.Errorf("record %d payload length: %w", i, err)
		}
		if arenaOff+plen > arenaLen {
			return p, fmt.Errorf("record %d payload overruns arena (%d+%d > %d)", i, arenaOff, plen, arenaLen)
		}
		if plen > 0 {
			pk.Payload = arena[arenaOff : arenaOff+plen : arenaOff+plen]
			arenaOff += plen
		}
		c.Records[i] = Record{At: at, Pk: pk}
	}
	if arenaOff != arenaLen {
		return p, fmt.Errorf("arena underrun (%d of %d used)", arenaOff, arenaLen)
	}
	if len(p) != 0 {
		return p, fmt.Errorf("%d trailing bytes in chunk", len(p))
	}
	return nil, nil
}

// ---- decode helpers ----

func readUvarint(p []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(p)
	if n <= 0 {
		return 0, p, errors.New("bad uvarint")
	}
	return v, p[n:], nil
}

func readBytes(p []byte) ([]byte, []byte, error) {
	n, p, err := readUvarint(p)
	if err != nil {
		return nil, p, err
	}
	if n > uint64(len(p)) {
		return nil, p, errors.New("truncated bytes")
	}
	return p[:n], p[n:], nil
}

func readString(p []byte) (string, []byte, error) {
	b, p, err := readBytes(p)
	if err != nil {
		return "", p, err
	}
	return string(b), p, nil
}

// ---- streaming recorder ----

// StreamRecorder captures packets straight into an IDT2 Writer, so
// recording memory is O(chunk) instead of O(capture). Plug Emit into a
// generator or netsim tap like Recorder's.
type StreamRecorder struct {
	sim *simtime.Sim
	w   *Writer
	err error
}

// NewStreamRecorder creates a recorder stamping records with sim's clock.
func NewStreamRecorder(sim *simtime.Sim, w *Writer) *StreamRecorder {
	return &StreamRecorder{sim: sim, w: w}
}

// Emit appends one packet at the current virtual time. The first append
// error is sticky and surfaced by Err.
func (r *StreamRecorder) Emit(p *packet.Packet) {
	if r.err != nil {
		return
	}
	r.err = r.w.Append(r.sim.Now(), p)
}

// Err returns the first append error, if any.
func (r *StreamRecorder) Err() error { return r.err }
