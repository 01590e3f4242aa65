package detect

// ScanMemo remembers the match sets of payloads already scanned, so
// that engines which meet the same payloads scan each one once: the
// deployments of a sweep testbed prescan the same pending batch at the
// same instant, and a throughput search re-ingests one packet pool on
// every probe.
//
// An entry is keyed by the payload's identity — the address of its
// first byte and its length — and by the matcher, so engines compiled
// from different corpora can share a memo. The key holds that address,
// which keeps the payload's memory alive while the entry is cached, so
// the identity cannot be reused by another payload. The memo is
// therefore only correct over payloads that nobody writes while they
// may be cached: garbage-collected bytes that are read-only once sent.
// Trace replay recycles its payload arenas in place (DESIGN §8.2) and
// must never install one.
//
// A ScanMemo is used from a single goroutine. When a store finds it
// full it forgets every entry (a capacity flush) and starts again;
// match sets live back to back in one reused arena, so a warm memo
// resolves a batch without allocating.
type ScanMemo struct {
	capacity int
	index    map[memoKey]memoSpan
	arena    []int32

	// Per-batch scratch: each payload's span, the payloads that missed,
	// and their scan.
	spans  []memoSpan
	misses [][]byte
	scan   BatchBuf
}

// memoKey is one payload's identity under one matcher.
type memoKey struct {
	m     *Matcher
	first *byte
	n     int
}

// memoSpan locates a match set: arena[off:off+n] when cached. For a
// batch's miss, off is -1 and n is its index among the misses.
type memoSpan struct{ off, n int32 }

// NewScanMemo returns an empty memo holding at most capacity (>= 1)
// match sets between flushes.
func NewScanMemo(capacity int) *ScanMemo {
	return &ScanMemo{capacity: capacity, index: make(map[memoKey]memoSpan, capacity)}
}

// scanBatch fills buf exactly as m.ScanBatch(payloads, buf) would. Each
// payload is resolved through the memo: hits are copied from it, and the
// misses are scanned together by the batched kernel and then stored.
func (c *ScanMemo) scanBatch(m *Matcher, payloads [][]byte, buf *BatchBuf) {
	c.spans, c.misses = c.spans[:0], c.misses[:0]
	for _, p := range payloads {
		// An empty payload matches nothing and has no first byte.
		sp, ok := memoSpan{}, len(p) == 0
		if !ok {
			sp, ok = c.index[memoKey{m, &p[0], len(p)}]
		}
		if !ok {
			sp = memoSpan{off: -1, n: int32(len(c.misses))}
			c.misses = append(c.misses, p)
		}
		c.spans = append(c.spans, sp)
	}
	m.ScanBatch(c.misses, &c.scan)

	// Copy every match set out before storing the misses: a flush while
	// storing rewrites the arena the hits point into.
	buf.n = len(payloads)
	buf.offs = append(buf.offs[:0], 0)
	buf.arena = buf.arena[:0]
	for _, sp := range c.spans {
		if sp.off < 0 {
			buf.arena = append(buf.arena, c.scan.Hits(int(sp.n))...)
		} else {
			buf.arena = append(buf.arena, c.arena[sp.off:sp.off+sp.n]...)
		}
		buf.offs = append(buf.offs, int32(len(buf.arena)))
	}
	for i, p := range c.misses {
		c.store(memoKey{m, &p[0], len(p)}, c.scan.Hits(i))
	}
	clear(c.misses)
}

// store caches one match set, flushing the memo first when it is full.
// A payload met twice in one batch misses twice and is stored once.
func (c *ScanMemo) store(k memoKey, hits []int32) {
	if _, ok := c.index[k]; ok {
		return
	}
	if len(c.index) >= c.capacity {
		clear(c.index)
		c.arena = c.arena[:0]
	}
	c.index[k] = memoSpan{off: int32(len(c.arena)), n: int32(len(hits))}
	c.arena = append(c.arena, hits...)
}
