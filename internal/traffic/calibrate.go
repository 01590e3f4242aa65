package traffic

import (
	"math"
	"math/rand"
	"slices"
	"sync"
)

// The session-rate calibration memo. SessionRateForPps converts a
// packet rate into a session rate through the profile's mean framed
// packets per session, which AvgPacketsPerSession estimates by
// synthesising 300 full-payload dialogues only to count their packets.
// The estimate uses a fixed seed, so it is a pure function of the
// profile's content: the ordered mix entries and the RandomPayloads knob
// (Name plays no part). An evaluation builds dozens of generators over a
// handful of distinct profiles, so the estimate is computed once per
// distinct content per process and shared.

// The fixed sampling SessionRateForPps calibrates with.
const (
	calibrationSeed    = 1
	calibrationSamples = 300
)

// calibrationMemo maps profileFingerprint -> *calibration. Concurrent
// first callers of one profile may each compute the estimate; they all
// compute the same value, and LoadOrStore keeps one of them.
var calibrationMemo sync.Map

type calibration struct {
	mix    []MixEntry // retained to verify against fingerprint collisions
	random bool
	avg    float64
}

// matches reports whether the memoized entry was computed for p's
// content, comparing weights by their bits exactly as the key does.
func (c *calibration) matches(p Profile) bool {
	if c.random != p.RandomPayloads || len(c.mix) != len(p.Mix) {
		return false
	}
	for i, m := range p.Mix {
		e := c.mix[i]
		if e.Kind != m.Kind || e.Locality != m.Locality ||
			math.Float64bits(e.Weight) != math.Float64bits(m.Weight) {
			return false
		}
	}
	return true
}

// profileFingerprint hashes a profile's calibration-relevant content
// with FNV-1a: each mix entry's kind, locality and weight bits in order,
// then the RandomPayloads flag.
func profileFingerprint(p Profile) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mixIn := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= uint64(byte(v >> (8 * i)))
			h *= prime64
		}
	}
	for _, m := range p.Mix {
		mixIn(uint64(m.Kind))
		mixIn(uint64(m.Locality))
		mixIn(math.Float64bits(m.Weight))
	}
	if p.RandomPayloads {
		mixIn(1)
	} else {
		mixIn(0)
	}
	return h
}

// calibratedAvgPackets returns
// p.AvgPacketsPerSession(rand.New(rand.NewSource(calibrationSeed)), calibrationSamples),
// served from the memo once any caller has computed it for p's content.
// On a fingerprint collision the colliding profile is computed uncached
// rather than served another profile's estimate.
func calibratedAvgPackets(p Profile) float64 {
	key := profileFingerprint(p)
	if v, ok := calibrationMemo.Load(key); ok {
		if c := v.(*calibration); c.matches(p) {
			return c.avg
		}
	}
	avg := p.AvgPacketsPerSession(rand.New(rand.NewSource(calibrationSeed)), calibrationSamples)
	calibrationMemo.LoadOrStore(key, &calibration{mix: slices.Clone(p.Mix), random: p.RandomPayloads, avg: avg})
	return avg
}
