//go:build race

package crypto

// raceEnabled reports a -race build. The race detector makes sync.Pool drop
// buffers at random, so math/big's scratch reuse, and with it any
// allocation count, is not stable there.
const raceEnabled = true
