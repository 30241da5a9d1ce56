package main

import (
	"fmt"
	"slices"
	"time"

	"csecg/internal/core"
)

// meter times the calls a phase makes. Calls into the system under test
// count toward its metrics; calls into the load generator (the mote and
// link models) are timed on their own and count toward nothing else.
type meter struct {
	tr *spanRecorder // nil in an untraced phase
	// sysNs and allocs total the system calls' time and heap bytes.
	sysNs  int64
	allocs uint64
	calls  [numSpanKinds]acc
	// latency holds one sample per released window, in ms: the duration
	// of the call that released it. Stream workloads leave out the
	// window that opens each session.
	latency []float64
	// mote and link time the load generator.
	mote, link acc
	// rates holds sessions_per_core over each chunk of rounds lasting at
	// least chunkSeconds; chunkAt, chunkSys and chunkWindows mark where
	// the open chunk began.
	rates        []float64
	chunkAt      time.Time
	chunkSys     int64
	chunkWindows int64
}

// chunkSeconds is the wall time over which one sessions_per_core sample
// is taken. The reported figure is the median sample, so a host that
// slows for a few seconds of a run moves it little.
const chunkSeconds = 1.0

// endRound closes a round after which windows have completed in total,
// and closes the open chunk once it has lasted chunkSeconds. The phase
// sets chunkAt when it starts.
func (m *meter) endRound(windows int64) {
	if time.Since(m.chunkAt).Seconds() < chunkSeconds {
		return
	}
	m.rates = append(m.rates, sessionsPerCore(windows-m.chunkWindows, m.sysNs-m.chunkSys))
	m.chunkAt, m.chunkSys, m.chunkWindows = time.Now(), m.sysNs, windows
}

// sessionsPerCoreMedian is the median over the closed chunks, or over
// the whole phase when it was too short to close one.
func (m *meter) sessionsPerCoreMedian(windows int64) float64 {
	if len(m.rates) == 0 {
		return sessionsPerCore(windows, m.sysNs)
	}
	return median(slices.Clone(m.rates))
}

// chunkNote summarizes the chunk samples for a human reader.
func (m *meter) chunkNote() string {
	if len(m.rates) == 0 {
		return "sessions_per_core over the whole phase (no chunk closed)"
	}
	r := slices.Clone(m.rates)
	slices.Sort(r)
	return fmt.Sprintf("sessions_per_core is the median of %d chunks of at least %.0f s: min %.2f, median %.2f, max %.2f",
		len(r), chunkSeconds, r[0], median(r), r[len(r)-1])
}

// sessionsPerCore is how many real-time sessions one core could serve:
// windows completed per second of system-call time, times the 2-second
// window period.
func sessionsPerCore(windows, sysNs int64) float64 {
	return ratio(float64(windows)*core.WindowSeconds, float64(sysNs)/1e9)
}

// sys runs f as a call into the system of kind k and returns its
// duration in ns. In a traced phase the call is a top-level span.
func (m *meter) sys(k spanKind, f func()) int64 {
	a := heapAllocs()
	var d int64
	if m.tr != nil {
		i := m.tr.begin(k)
		f()
		m.tr.end(i)
		d = m.tr.spans[i].end - m.tr.spans[i].start
	} else {
		start := time.Now()
		f()
		d = int64(time.Since(start))
	}
	m.allocs += heapAllocs() - a
	m.sysNs += d
	m.calls[k].add(d)
	return d
}

// gen runs f as load-generator work timed into a.
func (m *meter) gen(a *acc, f func()) {
	start := time.Now()
	f()
	a.add(int64(time.Since(start)))
}
