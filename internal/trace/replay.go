// Streaming replay: ReplayReader schedules an IDT2 stream onto a
// simulation chunk by chunk, decoding each chunk inside the simulation
// event that schedules it.
package trace

import (
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/packet"
	"repro/internal/simtime"
)

// ReplayStream is the handle for an in-flight streaming replay. Chunk
// decoding and scheduling continue inside simulation events after
// ReplayReader returns, so decode errors that surface mid-run are
// reported here; check Err after the simulation drains.
type ReplayStream struct {
	err error
}

// Err returns the first mid-replay decode/schedule error, if any.
func (rs *ReplayStream) Err() error { return rs.err }

// releaseLag is how many chunks a replayed chunk is kept alive after
// its successor starts. Packets emitted into a testbed sit in bounded
// network queues for at most milliseconds, while a chunk spans seconds
// of virtual time at any realistic packet rate; a two-chunk lag leaves
// the recycled arena untouchable until long after the last reference
// drained, even for pathologically short chunks.
const releaseLag = 2

// ReplayReader schedules a streamed trace onto sim with the same
// semantics as Replay — first record at start, the trace's own gaps,
// delivery through emit — but with O(chunk) memory: only the current
// chunk's records are scheduled, and an advance event at each chunk's
// last record time decodes and schedules the next chunk. The decode
// runs on the simulation's goroutine, which is the reader's one
// goroutine.
//
// Scheduling order matches the in-memory path: a chunk's records are
// scheduled in trace order, and the advance event for chunk N+1 is
// scheduled after chunk N's records, so at a shared timestamp the
// packet event fires first. Replayed chunks are released back to the
// reader releaseLag chunks later.
//
// The returned handle carries errors from advance events that fire
// while the simulation runs; callers must check handle.Err() after the
// sim drains.
func ReplayReader(sim *simtime.Sim, rd *Reader, start time.Duration, emit func(p *packet.Packet)) (*ReplayStream, error) {
	if emit == nil {
		return nil, errors.New("trace: nil emit")
	}
	rs := &ReplayStream{}
	first, err := rd.Next()
	if err == io.EOF {
		return rs, nil
	}
	if err != nil {
		return nil, err
	}
	base := first.FirstAt()

	// held keeps the most recent releaseLag replayed chunks alive so
	// packets still in flight through the network model cannot alias a
	// recycled arena. held[0] is oldest.
	var held [releaseLag]*Chunk
	var advance func()
	// play schedules c's records and the advance event at its last
	// record, then retires c.
	play := func(c *Chunk) error {
		for i := range c.Records {
			rec := c.Records[i]
			if _, err := sim.ScheduleAt(start+rec.At-base, func() { emit(rec.Pk) }); err != nil {
				return err
			}
		}
		if _, err := sim.ScheduleAt(start+c.LastAt()-base, advance); err != nil {
			return err
		}
		if old := held[0]; old != nil {
			old.Release()
		}
		copy(held[:], held[1:])
		held[len(held)-1] = c
		return nil
	}
	advance = func() {
		c, err := rd.Next()
		if err == io.EOF {
			// Trailing chunks are left for the GC: packets may still be
			// in flight when the stream ends.
			return
		}
		if err == nil {
			err = play(c)
		}
		if err != nil {
			rs.err = fmt.Errorf("trace: streaming replay: %w", err)
		}
	}
	if err := play(first); err != nil {
		return nil, err
	}
	return rs, nil
}
