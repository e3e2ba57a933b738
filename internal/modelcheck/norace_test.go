//go:build !race

package modelcheck_test

const raceEnabled = false
