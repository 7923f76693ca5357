//go:build race

package netsim

// raceEnabled reports a -race build, whose instrumentation of the
// sharded window loop's channel handoffs allocates.
const raceEnabled = true
