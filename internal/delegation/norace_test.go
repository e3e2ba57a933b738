//go:build !race

package delegation

const raceEnabled = false
