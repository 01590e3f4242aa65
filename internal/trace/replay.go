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
// The records ride one simtime lane whose handler is emit, so the heap
// holds one entry for the whole replay and no closure is built per
// record. A lane item takes its tie-break number when it is pushed,
// exactly as ScheduleAt does; a chunk's records are pushed in trace
// order when the chunk decodes, and the advance event for chunk N+1 is
// scheduled right after chunk N's records, so at a shared timestamp the
// packet events fire first. Alone on its sim, a stream therefore fires
// exactly as Replay fires its records. Against another event source
// one order differs: an event scheduled for the time of a record in a
// chunk not yet decoded fires before that record here, after it in
// Replay. The lane needs push times that never decrease, which the
// Reader guarantees: it rejects a chunk that starts before its
// predecessor's last record. Replayed chunks are released back to the
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
	if start < sim.Now() {
		return nil, fmt.Errorf("trace: replay start %v before now %v: %w", start, sim.Now(), simtime.ErrPastTime)
	}
	base := first.FirstAt()
	lane := simtime.NewLane(sim, emit)

	// held keeps the most recent releaseLag replayed chunks alive so
	// packets still in flight through the network model cannot alias a
	// recycled arena. held[0] is oldest.
	var held [releaseLag]*Chunk
	var advance func()
	// play pushes c's records onto the lane and schedules the advance
	// event at its last record, then retires c.
	play := func(c *Chunk) error {
		// Record times never decrease and a chunk starts no earlier than
		// its predecessor ends, so every record lands at or after now
		// unless its offset from start overflows the clock; the last
		// record overflows if any does.
		last := start + c.LastAt() - base
		if last < sim.Now() {
			return fmt.Errorf("trace: record at %v overflows the replay clock from %v: %w", c.LastAt(), start, simtime.ErrPastTime)
		}
		for i := range c.Records {
			lane.Push(start+c.Records[i].At-base, c.Records[i].Pk)
		}
		if _, err := sim.ScheduleAt(last, advance); err != nil {
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
