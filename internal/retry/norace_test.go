//go:build !race

package retry

const raceEnabled = false
