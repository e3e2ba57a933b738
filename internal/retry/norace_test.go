//go:build !race

package retry_test

const raceEnabled = false
