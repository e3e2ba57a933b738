//go:build race

package modelcheck_test

// raceEnabled reports that the race detector is active; the allocation
// pins skip themselves there.
const raceEnabled = true
