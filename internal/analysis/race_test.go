//go:build race

package analysis_test

// raceEnabled reports that the race detector is active; the allocation
// pin skips itself there.
const raceEnabled = true
