//go:build race

package retry

// raceEnabled reports that the race detector is active: the allocation
// pins skip themselves, as the other packages' pins do.
const raceEnabled = true
