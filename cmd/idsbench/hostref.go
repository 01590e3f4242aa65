package main

import (
	"sort"
	"time"
)

// refLen is the reference kernel's input size: large enough that one
// run takes tens of milliseconds, small enough to run between ops.
const refLen = 1 << 18

// hostRef times a fixed kernel that no change to this repository can
// speed up: sorting refLen pseudo-random float64s, regenerated from a
// fixed seed into a preallocated buffer. The host this benchmark runs
// on is shared, and its speed drifts by 10-30% over minutes, moving
// wall and CPU times of every op alike; dividing an op's time by the
// reference time taken right around it cancels most of that drift
// (the run-to-run spread of the op median roughly halves), while a
// change that makes the op cheaper still shows in full. It allocates
// nothing after construction, so timing it between ops leaves the
// process under test as it was.
type hostRef struct {
	buf []float64
}

func newHostRef() *hostRef { return &hostRef{buf: make([]float64, refLen)} }

// sample runs the kernel once and returns its wall time in seconds.
func (h *hostRef) sample() float64 {
	x := uint64(0x9e3779b97f4a7c15)
	for i := range h.buf {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		h.buf[i] = float64(x>>11) / (1 << 53)
	}
	start := time.Now()
	sort.Float64s(h.buf)
	return time.Since(start).Seconds()
}
