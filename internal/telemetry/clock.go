package telemetry

import "time"

// Clock supplies monotonic integer timestamps in nanosecond ticks. All
// telemetry timing goes through a Clock so tests can inject a manual
// one and get bit-identical traces; the determinism analyzer bans bare
// time.Now in library packages for exactly this reason.
type Clock interface {
	// Now returns the current time in nanosecond ticks. The epoch is
	// implementation-defined; only differences are meaningful.
	Now() int64
}

// WallClock is the production Clock: wall time in nanoseconds since the
// Unix epoch.
type WallClock struct{}

// Now returns wall time in nanoseconds.
func (WallClock) Now() int64 {
	return time.Now().UnixNano() //csecg:nondet instrumentation clock, injectable via the Clock interface
}

// ManualClock is a Clock that stays at the tick it was built with, so
// every duration read through it is zero and deterministic: replays and
// tests inject it. The zero value reads tick 0.
type ManualClock struct {
	ticks int64
}

// NewManualClock returns a manual clock fixed at the given tick.
func NewManualClock(start int64) *ManualClock { return &ManualClock{ticks: start} }

// Now returns the clock's tick.
func (c *ManualClock) Now() int64 { return c.ticks }
