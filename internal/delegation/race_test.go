//go:build race

package delegation

// raceEnabled reports that the race detector is active: its
// instrumentation allocates, so allocation-count guards are meaningless
// in that mode.
const raceEnabled = true
