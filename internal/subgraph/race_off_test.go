//go:build !race

package subgraph

const raceEnabled = false
