//go:build !race

package binapi

const raceEnabled = false
