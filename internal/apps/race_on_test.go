//go:build race

package apps

// raceEnabled: the race detector makes sync.Pool drop a share of what is
// put into it, so byte-allocation gates do not hold under it.
const raceEnabled = true
