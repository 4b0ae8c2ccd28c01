//go:build race

package agg

// raceEnabled: the race detector makes sync.Pool drop a share of what is
// put into it, so allocation gates do not hold under it.
const raceEnabled = true
