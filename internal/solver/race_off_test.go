//go:build !race

package solver

const raceEnabled = false
