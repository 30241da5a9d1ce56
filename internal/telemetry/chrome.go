package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Chrome trace tracks. Every session label gets three processes — mote,
// link and coordinator — each with one resource lane (tid 1). The
// depth-1 leaves that occupy a resource (mote CPU, radio, decode core)
// are slices on its lane; those resources are serialized on the modeled
// timeline, so slices on one lane never overlap.
const (
	chromeMote = iota
	chromeLink
	chromeCoordinator
)

var chromeTracks = [...]struct{ process, lane string }{
	chromeMote:        {"mote", "encode"},
	chromeLink:        {"link", "air"},
	chromeCoordinator: {"coordinator", "decode"},
}

// chromeLane is each process's single resource lane (tid); chromeCat
// is the category of every window event.
const (
	chromeLane = 1
	chromeCat  = "window"
)

// chromeTrack places a depth-1 stage on its process. Waits are not
// resources — several windows can wait at once — so they render as
// async slices keyed by the window's trace ID, nested in the window's
// async slice rather than on a lane.
func chromeTrack(stage string) (track int, wait bool) {
	switch stage {
	case StageEncodeWait:
		return chromeMote, true
	case StageCSSample, StageDiff, StageHuffman:
		return chromeMote, false
	case StageRetransmitWait, StageLinkTransit:
		return chromeLink, true
	case StageTX, StageRetransmit:
		return chromeLink, false
	case StageReassemble:
		return chromeCoordinator, true
	}
	return chromeCoordinator, false
}

// WriteChromeTrace renders causal span trees as Chrome trace_event
// JSON, loadable in chrome://tracing or Perfetto:
//
//   - each window is an async "window" slice on its coordinator track,
//     keyed by trace ID and carrying seq, rung and flags;
//   - resource leaves are slices on the mote/link/coordinator lanes; the
//     solver leaf opens a B/E pair that nests its continuation stage/i
//     children, and rung changes are instants;
//   - wait leaves are async slices keyed by the same trace ID;
//   - a flow arrow (s/t/f, the end bound with bp:e) follows the window
//     from encode through every transmission to the solve;
//   - downsampled solver iterations become the "fista objective",
//     "fista residual" and "fista step" counter tracks.
//
// Timestamps and durations convert from nanosecond ticks to the
// format's microseconds with the sub-microsecond remainder kept as three
// decimal places, so modeled cycle-level durations survive. The output
// is byte-stable for a given record list (golden-tested).
//
//csecg:host export-time formatting
func WriteChromeTrace(w io.Writer, recs []TraceRecord) error {
	c := &chromeWriter{}
	c.b.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	pids := map[string]int64{}
	for i := range recs {
		r := &recs[i]
		pid, ok := pids[r.Session]
		if !ok {
			pid = int64(len(pids))*int64(len(chromeTracks)) + 1
			pids[r.Session] = pid
			c.session(r.Session, pid)
		}
		c.window(r, pid)
	}
	c.b.WriteString("]}\n")
	_, err := io.WriteString(w, c.b.String())
	return err
}

// chromeWriter accumulates the trace_event array.
type chromeWriter struct {
	b strings.Builder
	n int
}

// event appends one event. extra is spliced in after ts (dur, id, bp);
// args is a rendered JSON object body without braces ("" for none).
func (c *chromeWriter) event(name, cat string, ph byte, ts int64, extra string, pid int64, tid int, args string) {
	if c.n > 0 {
		c.b.WriteByte(',')
	}
	c.n++
	c.b.WriteString(`{"name":` + jsonString(name))
	if cat != "" {
		c.b.WriteString(`,"cat":` + jsonString(cat))
	}
	fmt.Fprintf(&c.b, `,"ph":"%c","ts":%s%s`, ph, micros(ts), extra)
	fmt.Fprintf(&c.b, `,"pid":%d,"tid":%d`, pid, tid)
	if args != "" {
		c.b.WriteString(`,"args":{`)
		c.b.WriteString(args)
		c.b.WriteByte('}')
	}
	c.b.WriteByte('}')
}

// session names the three processes of one session label and their
// lanes; pid is the mote process, link and coordinator follow.
func (c *chromeWriter) session(label string, pid int64) {
	for i, t := range chromeTracks {
		name := t.process
		if label != "" {
			name = label + " — " + t.process
		}
		p := pid + int64(i)
		c.event("process_name", "", 'M', 0, "", p, 0, `"name":`+jsonString(name))
		c.event("process_sort_index", "", 'M', 0, "", p, 0, fmt.Sprintf(`"sort_index":%d`, p))
		c.event("thread_name", "", 'M', 0, "", p, chromeLane, `"name":`+jsonString(t.lane))
	}
}

// window renders one span tree; pid is its session's mote process.
func (c *chromeWriter) window(r *TraceRecord, pid int64) {
	if len(r.Spans) == 0 {
		return
	}
	id := `,"id":"` + r.TraceID + `"`
	seq := fmt.Sprintf(`"seq":%d`, r.Seq)
	coord := pid + chromeCoordinator
	root := r.Spans[0]
	rootArgs := fmt.Sprintf(`%s,"rung":%d`, seq, r.Rung)
	if len(r.Flags) > 0 {
		rootArgs += `,"flags":` + jsonString(strings.Join(r.Flags, ","))
	}
	c.event(StageWindow, chromeCat, 'b', root.StartNs, id, coord, chromeLane, rootArgs)
	// Only decoded windows draw a flow arrow: a shed window never
	// reaches the solve the arrow ends on.
	flowing, decoded := false, r.LatencyNs > 0
	for i := 1; i < len(r.Spans); i++ {
		s := &r.Spans[i]
		if s.Parent != 0 {
			continue // children render inside their parent below
		}
		track, wait := chromeTrack(s.Stage)
		p := pid + int64(track)
		switch {
		case wait:
			c.event(s.Stage, chromeCat, 'b', s.StartNs, id, p, chromeLane, seq)
			c.event(s.Stage, chromeCat, 'e', s.StartNs+s.DurNs, id, p, chromeLane, "")
			continue
		case s.Stage == StageRungChange:
			c.event(s.Stage, chromeCat, 'i', s.StartNs, `,"s":"t"`, p, chromeLane,
				fmt.Sprintf(`%s,"rung":%d`, seq, s.Rung))
			continue
		}
		args := seq
		if s.Attempt > 0 {
			args += fmt.Sprintf(`,"attempt":%d`, s.Attempt)
		}
		if s.Rung >= 0 {
			args += fmt.Sprintf(`,"rung":%d`, s.Rung)
		}
		children := false
		for j := i + 1; j < len(r.Spans) && !children; j++ {
			children = r.Spans[j].Parent == i
		}
		if children {
			c.event(s.Stage, chromeCat, 'B', s.StartNs, "", p, chromeLane, args)
		} else {
			c.event(s.Stage, chromeCat, 'X', s.StartNs, `,"dur":`+micros(s.DurNs), p, chromeLane, args)
		}
		// The window's flow arrow starts on its first resource slice,
		// steps through every transmission and ends on the solve.
		switch {
		case !decoded: // shed: no arrow
		case !flowing:
			c.event(FlowWindow, chromeCat, 's', s.StartNs, id, p, chromeLane, "")
			flowing = true
		case track == chromeLink:
			c.event(FlowWindow, chromeCat, 't', s.StartNs, id, p, chromeLane, "")
		case s.Rung >= 0:
			c.event(FlowWindow, chromeCat, 'f', s.StartNs, id+`,"bp":"e"`, p, chromeLane, "")
		}
		if !children {
			continue
		}
		for j := i + 1; j < len(r.Spans); j++ {
			if ch := &r.Spans[j]; ch.Parent == i {
				c.event(ch.Stage, chromeCat, 'B', ch.StartNs, "", p, chromeLane, "")
				c.event(ch.Stage, chromeCat, 'E', ch.StartNs+ch.DurNs, "", p, chromeLane, "")
			}
		}
		c.event(s.Stage, chromeCat, 'E', s.StartNs+s.DurNs, "", p, chromeLane, "")
	}
	for _, it := range r.Iter {
		c.event("fista objective", "", 'C', it.AtNs, "", coord, 0, `"objective":`+formatFloat(it.Objective))
		c.event("fista residual", "", 'C', it.AtNs, "", coord, 0, `"residual":`+formatFloat(it.Residual))
		c.event("fista step", "", 'C', it.AtNs, "", coord, 0, `"step":`+formatFloat(it.Step))
	}
	c.event(StageWindow, chromeCat, 'e', root.StartNs+root.DurNs, id, coord, chromeLane, "")
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// micros renders nanosecond ticks as microseconds with three decimals
// (the trace_event unit is µs).
func micros(ns int64) string {
	sign := ""
	if ns < 0 {
		sign, ns = "-", -ns
	}
	return fmt.Sprintf("%s%d.%03d", sign, ns/1000, ns%1000)
}

// jsonString returns s JSON-escaped.
func jsonString(s string) string {
	enc, err := json.Marshal(s)
	if err != nil {
		// Marshaling a string cannot fail; keep the output well-formed
		// regardless.
		return `""`
	}
	return string(enc)
}
