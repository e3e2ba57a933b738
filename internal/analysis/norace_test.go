//go:build !race

package analysis_test

const raceEnabled = false
