//go:build race

package modelcheck

// raceEnabled reports that the race detector is active; the allocation
// pins skip themselves there.
const raceEnabled = true
