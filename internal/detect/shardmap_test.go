package detect

import (
	"testing"
)

func newTestMap() *shardedMap[uint64, int] {
	return newShardedMap[uint64, int](hashU64)
}

// get finds k's value slot by brute force over every shard slot,
// independent of the probe sequence under test; nil if absent.
func (t *shardedMap[K, V]) get(k K) *V {
	for s := range t.shards {
		sh := &t.shards[s]
		for i, used := range sh.used {
			if used && sh.keys[i] == k {
				return &sh.vals[i]
			}
		}
	}
	return nil
}

func TestShardedMapPutGet(t *testing.T) {
	m := newTestMap()
	if m.Len() != 0 {
		t.Fatalf("fresh map Len = %d", m.Len())
	}
	if got := m.get(42); got != nil {
		t.Fatalf("get on empty map = %v", got)
	}
	v, found := m.Put(42)
	if found {
		t.Fatal("first Put reported found")
	}
	*v = 7
	if v2, found := m.Put(42); !found || *v2 != 7 {
		t.Fatalf("second Put: found=%v val=%d", found, *v2)
	}
	if got := m.get(42); got == nil || *got != 7 {
		t.Fatalf("get after Put = %v", got)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
}

// TestShardedMapGrowKeepsEntries inserts far past the initial shard
// capacity (forcing several grows in every shard) and verifies every
// key still maps to its value.
func TestShardedMapGrowKeepsEntries(t *testing.T) {
	m := newTestMap()
	const n = 10_000
	for i := uint64(0); i < n; i++ {
		v, found := m.Put(i)
		if found {
			t.Fatalf("key %d already present", i)
		}
		*v = int(i * 3)
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		got := m.get(i)
		if got == nil || *got != int(i*3) {
			t.Fatalf("key %d = %v, want %d", i, got, i*3)
		}
	}
	if got := m.get(n + 5); got != nil {
		t.Fatal("absent key resolved after grows")
	}
}

// TestShardedMapSweep drops the odd keys and checks survivors, count,
// and that dropped slots really are gone (reinsertable as fresh).
func TestShardedMapSweep(t *testing.T) {
	m := newTestMap()
	for i := uint64(0); i < 1000; i++ {
		v, _ := m.Put(i)
		*v = int(i)
	}
	m.Sweep(func(k uint64, v *int) bool { return k%2 == 0 })
	if m.Len() != 500 {
		t.Fatalf("Len after sweep = %d, want 500", m.Len())
	}
	for i := uint64(0); i < 1000; i++ {
		got := m.get(i)
		if i%2 == 0 {
			if got == nil || *got != int(i) {
				t.Fatalf("survivor %d = %v", i, got)
			}
		} else if got != nil {
			t.Fatalf("swept key %d still present", i)
		}
	}
	// A swept key reinserts as new with a zero value.
	v, found := m.Put(1)
	if found || *v != 0 {
		t.Fatalf("reinsert of swept key: found=%v val=%d", found, *v)
	}
}

// TestShardedMapSweepAllocFree pins the steady-state prune cost: sweeping
// a warmed map allocates nothing (scratch buffers are retained).
func TestShardedMapSweepAllocFree(t *testing.T) {
	m := newTestMap()
	for i := uint64(0); i < 512; i++ {
		v, _ := m.Put(i)
		*v = int(i)
	}
	m.Sweep(func(uint64, *int) bool { return true }) // warm scratch
	allocs := testing.AllocsPerRun(50, func() {
		m.Sweep(func(uint64, *int) bool { return true })
	})
	if allocs != 0 {
		t.Fatalf("Sweep allocates %.1f allocs/op on the steady state, want 0", allocs)
	}
}

// TestShardedMapPointerStability documents the contract the threshold
// freelist depends on: a value pointer from Put stays valid for reads
// and writes until the next Put or Sweep on the map (pointers are into
// shard backing arrays, which grow on insert).
func TestShardedMapPointerStability(t *testing.T) {
	m := newTestMap()
	v, _ := m.Put(99)
	*v = 41
	*v++
	if got := m.get(99); got == nil || *got != 42 {
		t.Fatalf("in-place update lost: %v", got)
	}
}

// TestMatcherCacheFootprintGauges verifies the resident-footprint gauges
// track the flattened layout's real size: caching a fresh corpus bumps
// the matcher count by one and the byte gauge by exactly that matcher's
// StateBytes; cache hits change neither.
func TestMatcherCacheFootprintGauges(t *testing.T) {
	corpus := [][]byte{
		[]byte("footprint-gauge-alpha"),
		[]byte("footprint-gauge-beta"),
		[]byte("footprint-gauge-gamma-longer-tail"),
	}
	m0, b0 := MatcherCacheFootprint()
	m := CachedMatcher(corpus)
	m1, b1 := MatcherCacheFootprint()
	if m1 != m0+1 {
		t.Fatalf("resident matchers %d -> %d, want +1", m0, m1)
	}
	if b1 != b0+uint64(m.StateBytes()) {
		t.Fatalf("state bytes %d -> %d, want +%d", b0, b1, m.StateBytes())
	}
	CachedMatcher(corpus) // hit: footprint unchanged
	if m2, b2 := MatcherCacheFootprint(); m2 != m1 || b2 != b1 {
		t.Fatalf("cache hit moved footprint: %d/%d -> %d/%d", m1, b1, m2, b2)
	}
	// The gauge must reflect the hybrid layout's actual arrays, not the
	// old dense-table estimate: StateBytes is dominated by dense rows
	// (256 packed words per dense state) plus CSR tails.
	if floor := int(m.numDense) * 256 * 4; m.StateBytes() < floor {
		t.Fatalf("StateBytes %d below dense-row floor %d", m.StateBytes(), floor)
	}
}
