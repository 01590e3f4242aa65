// Package detect implements the detection engines the simulated IDS
// products are built from: a signature (misuse) engine backed by an
// Aho–Corasick multi-pattern matcher plus header and threshold rules, an
// anomaly (behaviour) engine backed by online statistical profiles, and a
// hybrid composition — the three detection-mechanism classes of Section
// 2.1 of the paper. Every engine exposes an adjustable sensitivity, the
// knob behind the paper's Figure 4 error-rate curves and the "Adjustable
// Sensitivity" architectural metric.
package detect

import "sort"

// Matcher is an Aho–Corasick automaton over byte patterns. Construction
// is O(total pattern bytes); scanning is O(input + matches) regardless of
// pattern count — the property that lets a signature sensor carry a large
// corpus at line rate.
//
// The automaton is stored in a flattened hybrid layout chosen for cache
// density rather than the textbook dense [][256] table: states are
// renumbered in BFS (depth) order, the hot shallow states — where a scan
// of realistic traffic spends almost all of its time — get fully
// fail-resolved dense 256-way rows in one contiguous array, and the long
// deep tail of the trie keeps only its explicit goto edges plus a fail
// link (classic Aho–Corasick fail-walking, amortized O(1) per byte).
// Every transition value is packed as target<<9|hasOutput: the scan
// loop learns "did a pattern end here" from the load it already did,
// and v>>1 is the target's pre-shifted dense row base (target<<8), so
// the next index is one OR away — no shift on the critical dependent
// chain. The packing bounds the automaton at 2^23 states (≈8M pattern
// bytes), far beyond any realistic rule corpus; NewMatcher enforces it.
type Matcher struct {
	// numDense is the count of BFS-leading states with dense rows; the
	// root is always dense, so fail walks from sparse states terminate.
	numDense int32
	// dense holds numDense rows of 256 packed transitions each.
	dense []uint32
	// Sparse tail states (ids >= numDense), indexed by id-numDense:
	// spFail is the fail link; spStart/spBytes/spTarget is a CSR listing
	// of explicit goto edges (bytes ascending, targets packed).
	spFail   []int32
	spStart  []int32
	spBytes  []byte
	spTarget []uint32
	// Outputs in CSR form over all states: outList[outStart[s]:outStart[s+1]]
	// are the pattern indices ending at state s (own patterns first, then
	// fail-chain inherited, preserving the classic reporting order).
	outStart []int32
	outList  []int32
	// patterns retains the compiled patterns for length lookup.
	patterns [][]byte
}

// maxDenseStates caps the dense prefix so a huge corpus cannot inflate
// the matcher back into the cache-hostile all-dense shape (1 KiB/state).
// Depth<=1 states are always dense (at most 257 of them); depth-2 states
// fill the remaining budget.
const maxDenseStates = 1024

// NewMatcher compiles the pattern set. Empty patterns are ignored.
func NewMatcher(patterns [][]byte) *Matcher {
	m := &Matcher{}

	// Phase 1: trie construction with explicit goto edges, in insertion
	// state numbering.
	edges := []map[byte]int32{{}}
	outOwn := [][]int32{nil}
	for _, pat := range patterns {
		if len(pat) == 0 {
			continue
		}
		idx := int32(len(m.patterns))
		m.patterns = append(m.patterns, pat)
		state := int32(0)
		for _, b := range pat {
			nxt, ok := edges[state][b]
			if !ok {
				nxt = int32(len(edges))
				edges = append(edges, map[byte]int32{})
				outOwn = append(outOwn, nil)
				edges[state][b] = nxt
			}
			state = nxt
		}
		outOwn[state] = append(outOwn[state], idx)
	}
	n := int32(len(edges))
	if n >= 1<<23 {
		panic("detect: pattern corpus exceeds 2^23 automaton states")
	}

	// Phase 2: BFS over bytes 0..255 (deterministic order) computing the
	// breadth-first state order, depths, fail links, and merged outputs.
	// BFS order is nondecreasing in depth, so renumbering states by BFS
	// position makes "shallow" a simple id-prefix test.
	order := make([]int32, 1, n) // order[0] = root
	depth := make([]int32, n)
	fail := make([]int32, n)
	outs := make([][]int32, n)
	outs[0] = outOwn[0]
	for qi := 0; qi < len(order); qi++ {
		s := order[qi]
		for b := 0; b < 256; b++ {
			t, ok := edges[s][byte(b)]
			if !ok {
				continue
			}
			depth[t] = depth[s] + 1
			if s == 0 {
				fail[t] = 0
			} else {
				fail[t] = resolve(edges, fail, fail[s], byte(b))
			}
			outs[t] = append(append([]int32(nil), outOwn[t]...), outs[fail[t]]...)
			if len(outs[t]) == 0 {
				outs[t] = nil
			}
			order = append(order, t)
		}
	}

	// Renumber: newID[old] = BFS position.
	newID := make([]int32, n)
	for pos, old := range order {
		newID[old] = int32(pos)
	}

	// Dense prefix: every depth<=1 state, then depth-2 states while the
	// budget lasts. The prefix test works because BFS order sorts by depth.
	numDense := int32(1)
	for pos := 1; pos < len(order); pos++ {
		d := depth[order[pos]]
		if d <= 1 || (d == 2 && pos < maxDenseStates) {
			numDense = int32(pos) + 1
			continue
		}
		break
	}
	m.numDense = numDense

	// Packed transition for target old-state t: pre-shifted row base plus
	// the output flag (v>>1 == newID<<8, the dense index of the target's
	// row).
	packed := func(t int32) uint32 {
		v := uint32(newID[t]) << 9
		if len(outs[t]) > 0 {
			v |= 1
		}
		return v
	}

	// Phase 3a: dense rows, in BFS order so a state's fail row (strictly
	// shallower, hence dense and earlier) is complete when referenced.
	m.dense = make([]uint32, int(numDense)*256)
	for pos := int32(0); pos < numDense; pos++ {
		old := order[pos]
		row := m.dense[pos*256 : pos*256+256]
		if pos == 0 {
			for b := 0; b < 256; b++ {
				if t, ok := edges[old][byte(b)]; ok {
					row[b] = packed(t)
				} // else stay at root: packed(0) == 0
			}
			continue
		}
		failRow := m.dense[newID[fail[old]]*256:][:256]
		for b := 0; b < 256; b++ {
			if t, ok := edges[old][byte(b)]; ok {
				row[b] = packed(t)
			} else {
				row[b] = failRow[b]
			}
		}
	}

	// Phase 3b: sparse tail — explicit edges only, bytes ascending.
	numSparse := n - numDense
	m.spFail = make([]int32, numSparse)
	m.spStart = make([]int32, numSparse+1)
	for pos := numDense; pos < n; pos++ {
		old := order[pos]
		si := pos - numDense
		m.spFail[si] = newID[fail[old]]
		for b := 0; b < 256; b++ {
			if t, ok := edges[old][byte(b)]; ok {
				m.spBytes = append(m.spBytes, byte(b))
				m.spTarget = append(m.spTarget, packed(t))
			}
		}
		m.spStart[si+1] = int32(len(m.spBytes))
	}

	// Phase 3c: outputs CSR in new numbering.
	m.outStart = make([]int32, n+1)
	total := 0
	for pos := int32(0); pos < n; pos++ {
		total += len(outs[order[pos]])
	}
	m.outList = make([]int32, 0, total)
	for pos := int32(0); pos < n; pos++ {
		m.outList = append(m.outList, outs[order[pos]]...)
		m.outStart[pos+1] = int32(len(m.outList))
	}
	return m
}

// resolve follows fail links in the (old-numbered) trie until state has a
// goto edge on b, returning that edge's target (root if none).
func resolve(edges []map[byte]int32, fail []int32, state int32, b byte) int32 {
	for {
		if t, ok := edges[state][b]; ok {
			return t
		}
		if state == 0 {
			return 0
		}
		state = fail[state]
	}
}

// stepSlow is the sparse-tail transition: look up an explicit edge on the
// current state, walking fail links (strictly decreasing depth, ending at
// a dense state) on a miss. Returns the packed transition value.
func (m *Matcher) stepSlow(state int32, b byte) uint32 {
	for {
		if state < m.numDense {
			return m.dense[uint32(state)<<8|uint32(b)]
		}
		si := state - m.numDense
		end := m.spStart[si+1]
		for j := m.spStart[si]; j < end; j++ {
			if m.spBytes[j] == b {
				return m.spTarget[j]
			}
		}
		state = m.spFail[si]
	}
}

// outs returns the pattern indices ending at state.
func (m *Matcher) outs(state uint32) []int32 {
	return m.outList[m.outStart[state]:m.outStart[state+1]]
}

// StateBytes reports the resident size of the compiled transition and
// output tables plus retained pattern bytes — the footprint the
// matcher-cache gauges publish. Slice headers and the struct itself are
// excluded (fixed small overhead).
func (m *Matcher) StateBytes() int {
	b := len(m.dense)*4 + len(m.spFail)*4 + len(m.spStart)*4 +
		len(m.spBytes) + len(m.spTarget)*4 +
		len(m.outStart)*4 + len(m.outList)*4
	for _, p := range m.patterns {
		b += len(p)
	}
	return b
}

// Match is one pattern occurrence in the scanned input.
type Match struct {
	// Pattern is the index into the compiled pattern set.
	Pattern int
	// End is the offset one past the match's final byte.
	End int
}

// Scan returns every pattern occurrence in data, in end-offset order.
// No command calls it: it is the reference for tests, which check
// ScanSetInto against it and it against NaiveScan. The loop tracks the
// pre-shifted row base (state<<8) rather than the state id: the packed
// transition load yields it directly (v>>1), so the dependent chain per
// byte is load → shift → or → load.
func (m *Matcher) Scan(data []byte) []Match {
	var out []Match
	row := uint32(0)
	dense := m.dense
	for i := 0; i < len(data); i++ {
		idx := uint64(row) | uint64(data[i])
		var v uint32
		if idx < uint64(len(dense)) {
			v = dense[idx]
		} else {
			v = m.stepSlow(int32(row>>8), data[i])
		}
		row = v >> 1
		if v&1 != 0 {
			for _, p := range m.outs(row >> 8) {
				out = append(out, Match{Pattern: int(p), End: i + 1})
			}
		}
	}
	return out
}

// Contains reports whether any pattern occurs in data, without
// materializing matches. No command calls it: it is the instrument of
// the gated BenchmarkAhoCorasickScan4K and of the matcher ablation that
// EXPERIMENTS.md quotes.
func (m *Matcher) Contains(data []byte) bool {
	row := uint32(0)
	dense := m.dense
	for i := 0; i < len(data); i++ {
		idx := uint64(row) | uint64(data[i])
		var v uint32
		if idx < uint64(len(dense)) {
			v = dense[idx]
		} else {
			v = m.stepSlow(int32(row>>8), data[i])
		}
		if v&1 != 0 {
			return true
		}
		row = v >> 1
	}
	return false
}

// ScanBuf is caller-owned scratch for ScanSetInto: a per-pattern seen
// bitmap plus the result list. One ScanBuf per inspecting goroutine
// lets many engines share a single immutable Matcher with zero
// per-packet allocation; the buffers grow once and are reused.
type ScanBuf struct {
	seen []bool
	hits []int32
}

// ScanSetInto returns the sorted distinct pattern indices occurring in
// data, using buf for all working state, so it allocates nothing once
// buf has grown. The returned slice aliases buf and is valid until the
// next call with the same buf.
func (m *Matcher) ScanSetInto(data []byte, buf *ScanBuf) []int32 {
	if len(buf.seen) < len(m.patterns) {
		buf.seen = make([]bool, len(m.patterns))
	}
	hits := buf.hits[:0]
	row := uint32(0)
	dense := m.dense
	for i := 0; i < len(data); i++ {
		idx := uint64(row) | uint64(data[i])
		var v uint32
		if idx < uint64(len(dense)) {
			v = dense[idx]
		} else {
			v = m.stepSlow(int32(row>>8), data[i])
		}
		row = v >> 1
		if v&1 != 0 {
			for _, p := range m.outs(row >> 8) {
				if !buf.seen[p] {
					buf.seen[p] = true
					hits = append(hits, p)
				}
			}
		}
	}
	// Reset the bitmap by walking only the touched entries, then sort the
	// hits ascending with an in-place insertion sort (the hit set is
	// tiny — bounded by the corpus size).
	for _, p := range hits {
		buf.seen[p] = false
	}
	insertionSortInt32(hits)
	buf.hits = hits
	return hits
}

// insertionSortInt32 sorts tiny hit lists without sort.Slice's funcval
// overhead or allocation.
func insertionSortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// NaiveScan scans each pattern independently with quadratic-ish
// substring search. No command calls it: it is the reference for tests
// (TestPropertyMatcherAgreesWithNaive) and the baseline of the gated
// BenchmarkNaiveScan4K that the Aho–Corasick ablation compares against.
func NaiveScan(patterns [][]byte, data []byte) []Match {
	var out []Match
	for pi, pat := range patterns {
		if len(pat) == 0 {
			continue
		}
		for i := 0; i+len(pat) <= len(data); i++ {
			matched := true
			for j := range pat {
				if data[i+j] != pat[j] {
					matched = false
					break
				}
			}
			if matched {
				out = append(out, Match{Pattern: pi, End: i + len(pat)})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].End != out[j].End {
			return out[i].End < out[j].End
		}
		return out[i].Pattern < out[j].Pattern
	})
	return out
}
