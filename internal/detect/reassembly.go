package detect

import (
	"repro/internal/packet"
)

// streamTail retains the last few payload bytes of each flow so content
// patterns that straddle a segment boundary still match: the classic
// evasion (Ptacek–Newsham style fragmentation of a signature across
// packets) defeats per-packet scanning but not a scanner that prepends
// the flow's tail. Only tail bytes up to the longest pattern minus one
// are needed for correctness.
type streamTail struct {
	buf []byte
}

// Reassembler maintains per-flow tails for an engine's content scanner.
type Reassembler struct {
	// tailLen is the retained byte count per flow (longest pattern − 1).
	tailLen int
	flows   map[packet.FlowKey]*streamTail
	// joined is the tail+payload buffer Extend returns, reused across
	// calls: the engine scans it at once and drops it, and an engine
	// runs on one goroutine.
	joined []byte
	// MaxFlows bounds memory; oldest-insertion eviction is approximated
	// by clearing the table when the cap is hit (flows re-learn their
	// tails within one packet).
	MaxFlows int
}

// NewReassembler creates a reassembler retaining tailLen bytes per flow.
func NewReassembler(tailLen int) *Reassembler {
	if tailLen < 0 {
		tailLen = 0
	}
	return &Reassembler{
		tailLen:  tailLen,
		flows:    make(map[packet.FlowKey]*streamTail),
		MaxFlows: 65536,
	}
}

// Extend returns the packet's payload prefixed with the flow's retained
// tail, and updates the tail. The returned slice must be treated as
// read-only and is only valid until the next Extend call.
func (r *Reassembler) Extend(p *packet.Packet) []byte {
	if r.tailLen == 0 || p.Proto != packet.ProtoTCP || len(p.Payload) == 0 {
		return p.Payload
	}
	key := p.Key()
	st, ok := r.flows[key]
	if !ok {
		if len(r.flows) >= r.MaxFlows {
			r.flows = make(map[packet.FlowKey]*streamTail)
		}
		st = &streamTail{}
		r.flows[key] = st
	}
	joined := p.Payload
	if len(st.buf) > 0 {
		r.joined = append(append(r.joined[:0], st.buf...), p.Payload...)
		joined = r.joined
	}
	// Update the tail with the final bytes of the stream so far.
	if len(joined) >= r.tailLen {
		st.buf = append(st.buf[:0], joined[len(joined)-r.tailLen:]...)
	} else {
		st.buf = append(st.buf[:0], joined...)
	}
	// Close out finished flows to bound memory on well-behaved traffic.
	if p.Flags.Has(packet.FIN) || p.Flags.Has(packet.RST) {
		delete(r.flows, key)
	}
	return joined
}

// longestPattern returns the maximum pattern length in a rule set.
func longestPattern(rules []ContentRule) int {
	max := 0
	for _, r := range rules {
		if len(r.Pattern) > max {
			max = len(r.Pattern)
		}
	}
	return max
}
