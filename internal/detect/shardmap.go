package detect

// Sharded open-addressing tables for per-flow engine state. The suppress
// and threshold maps sit on the per-candidate-match hot path; Go's
// runtime map pays a hashed bucket walk plus write-barrier traffic per
// touch. shardedMap replaces them with fixed-count shards of linear-probe
// arrays: the key/value slots are flat, probes are short (load kept under
// 3/4), and the working set of a shard stays cache-resident. Iteration
// (sweep) is slot-ordered and used only for pruning, whose per-entry
// effects are order-independent — the same contract the randomized map
// iteration relied on.

// shardBits fixes the shard count at 8: enough to keep individual probe
// arrays small and resident, few enough that an engine's total table
// overhead stays trivial.
const (
	shardBits  = 3
	shardCount = 1 << shardBits
	// shardMinCap is a new shard's initial slot count (power of two).
	shardMinCap = 32
)

// hashU64 is the splitmix64 finalizer — enough mixing that sequential
// flow keys spread across shards and probe positions.
func hashU64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// oaShard is one linear-probe region. keys/vals/used are parallel arrays
// of a power-of-two size.
type oaShard[K comparable, V any] struct {
	keys []K
	vals []V
	used []bool
	live int
	// sweep scratch, reused so pruning allocates nothing at steady state.
	scratchK []K
	scratchV []V
}

// shardedMap is a fixed-shard open-addressing hash map.
type shardedMap[K comparable, V any] struct {
	hash   func(K) uint64
	shards [shardCount]oaShard[K, V]
	count  int
}

func newShardedMap[K comparable, V any](hash func(K) uint64) *shardedMap[K, V] {
	return &shardedMap[K, V]{hash: hash}
}

// Len reports live entries across all shards.
func (t *shardedMap[K, V]) Len() int { return t.count }

// Put returns a pointer to k's value slot, inserting a zero value if
// absent; found reports whether the key already existed. The pointer is
// invalidated by the next Put or Sweep.
func (t *shardedMap[K, V]) Put(k K) (v *V, found bool) {
	h := t.hash(k)
	sh := &t.shards[h>>(64-shardBits)]
	if sh.live*4 >= len(sh.used)*3 {
		t.growShard(sh)
	}
	mask := uint64(len(sh.used) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if !sh.used[i] {
			sh.used[i] = true
			sh.keys[i] = k
			var zero V
			sh.vals[i] = zero
			sh.live++
			t.count++
			return &sh.vals[i], false
		}
		if sh.keys[i] == k {
			return &sh.vals[i], true
		}
	}
}

// growShard doubles a shard's capacity (or allocates the initial one) and
// reinserts its entries.
func (t *shardedMap[K, V]) growShard(sh *oaShard[K, V]) {
	newCap := shardMinCap
	if len(sh.used) > 0 {
		newCap = len(sh.used) * 2
	}
	oldK, oldV, oldU := sh.keys, sh.vals, sh.used
	sh.keys = make([]K, newCap)
	sh.vals = make([]V, newCap)
	sh.used = make([]bool, newCap)
	mask := uint64(newCap - 1)
	for i := range oldU {
		if !oldU[i] {
			continue
		}
		h := t.hash(oldK[i])
		for j := h & mask; ; j = (j + 1) & mask {
			if !sh.used[j] {
				sh.used[j] = true
				sh.keys[j] = oldK[i]
				sh.vals[j] = oldV[i]
				break
			}
		}
	}
}

// Sweep visits every entry in slot order and deletes those for which
// keep returns false, compacting each shard in place. Surviving entries
// are rehashed within the shard, so probe chains stay canonical after
// deletions — the open-addressing analogue of map delete.
func (t *shardedMap[K, V]) Sweep(keep func(k K, v *V) bool) {
	for s := range t.shards {
		sh := &t.shards[s]
		if sh.live == 0 {
			continue
		}
		sh.scratchK = sh.scratchK[:0]
		sh.scratchV = sh.scratchV[:0]
		for i := range sh.used {
			if !sh.used[i] {
				continue
			}
			if keep(sh.keys[i], &sh.vals[i]) {
				sh.scratchK = append(sh.scratchK, sh.keys[i])
				sh.scratchV = append(sh.scratchV, sh.vals[i])
			}
			sh.used[i] = false
			var zero V
			sh.vals[i] = zero
		}
		t.count -= sh.live
		sh.live = len(sh.scratchK)
		t.count += sh.live
		mask := uint64(len(sh.used) - 1)
		for i, k := range sh.scratchK {
			h := t.hash(k)
			for j := h & mask; ; j = (j + 1) & mask {
				if !sh.used[j] {
					sh.used[j] = true
					sh.keys[j] = k
					sh.vals[j] = sh.scratchV[i]
					break
				}
			}
		}
		// Drop value references from scratch so swept-out state (e.g.
		// *thresholdState) is collectable.
		var zero V
		for i := range sh.scratchV {
			sh.scratchV[i] = zero
		}
	}
}
