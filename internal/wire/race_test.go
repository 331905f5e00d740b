//go:build race

package wire

// raceEnabled is set under the race detector, which makes sync.Pool drop
// a random share of Puts: pooled-allocation bounds do not hold there.
const raceEnabled = true
