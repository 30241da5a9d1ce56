package solver

import "csecg/internal/linalg"

// deadline is the soft wall-clock budget of one solver run, resolved
// from Options at entry. Solvers poll it every DefaultDeadlineEvery
// iterations; when it fires they stop at the current iterate and flag
// the result DeadlineExpired — the best-so-far answer, never an error.
// Library code must stay deterministic (csecg-vet bans time.Now here),
// so the clock is injected; with no clock the deadline is inert.
type deadline struct {
	ns  int64
	now func() int64
}

func newDeadline[T linalg.Float](opt *Options[T]) deadline {
	d := deadline{ns: opt.DeadlineNs, now: opt.Now}
	if d.now == nil {
		d.ns = 0
	}
	return d
}

// expired reports whether the deadline has passed, polling the clock
// only on iteration multiples of the check stride.
func (d deadline) expired(iter int) bool {
	return d.ns != 0 && iter%DefaultDeadlineEvery == 0 && d.now() >= d.ns
}

// DefaultDeadlineEvery is the iteration stride between deadline checks:
// frequent enough that an expired budget costs at most a few
// milliseconds of overshoot, sparse enough that the clock read is free
// against the two operator applies per iteration.
const DefaultDeadlineEvery = 32
