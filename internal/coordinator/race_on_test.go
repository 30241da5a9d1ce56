//go:build race

package coordinator

// raceEnabled reports a -race build. TestDecodeDigest skips there: it
// takes about 90 s under the race detector against about 7 s without,
// and the decoded bits do not depend on it.
const raceEnabled = true
