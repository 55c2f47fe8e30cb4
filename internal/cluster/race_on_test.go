//go:build race

package cluster

// raceEnabled reports a -race build, whose instrumentation allocates:
// allocation-count assertions do not hold under it.
const raceEnabled = true
