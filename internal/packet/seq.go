package packet

// SeqCounter issues unique packet sequence numbers. Generators and attack
// scenarios share one counter per simulation so that loss accounting can
// treat Seq as a global identity.
type SeqCounter struct {
	n uint64
}

// Next returns the next sequence number, starting at 1 so the zero value
// of Packet.Seq means "unassigned".
func (c *SeqCounter) Next() uint64 {
	c.n++
	return c.n
}

// Reserve issues a block of n sequence numbers, as n calls to Next
// would, and returns the first; the block is first..first+n-1.
func (c *SeqCounter) Reserve(n int) (first uint64) {
	first = c.n + 1
	c.n += uint64(n)
	return first
}
