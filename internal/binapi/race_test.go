//go:build race

package binapi

// raceEnabled reports that the race detector is active: sync.Pool
// deliberately drops items under instrumentation, so allocation-count
// guards are meaningless in that mode.
const raceEnabled = true
