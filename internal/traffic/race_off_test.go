//go:build !race

package traffic

// raceEnabled reports a race-detector build, whose sync.Pool drops a
// quarter of its puts at random.
const raceEnabled = false
