//go:build race

package core

// raceEnabled reports a -race build. sync.Pool drops a random share of
// Put calls under the race detector, so allocation counts are only
// meaningful without it.
const raceEnabled = true
