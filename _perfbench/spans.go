package main

import (
	"bufio"
	"compress/gzip"
	"os"
	"strconv"
	"time"
	"unsafe"

	"csecg/internal/linalg"
)

// spanKind names a layer boundary the traced run records.
type spanKind uint8

const (
	spanParse       spanKind = iota // coordinator.Receiver.ParseFrame
	spanPush                        // coordinator.Receiver.Push
	spanEndSlot                     // coordinator.Receiver.EndSlot
	spanClose                       // coordinator.Receiver.Close
	spanScrape                      // telemetry.WritePrometheus of the session registry
	spanRefDecode                   // coordinator.RealTimeDecoder.Decode, the reference the traced decode must match
	spanDecode                      // the traced decode of one packet
	spanHuffman                     // key unpack, or huffman.Codebook.Decode of a delta payload
	spanFISTA                       // solver.FISTA or solver.FISTAContinuation
	spanReconstruct                 // residual, wavelet Inverse and requantization
	spanEstimate                    // metrics.EstimatePRDN
	spanPhiApply                    // sensing.Op Apply
	spanPhiApplyT                   // sensing.Op ApplyT
	spanPsiSynth                    // wavelet SynthesisOp Apply (synthesis)
	spanPsiAnalysis                 // wavelet SynthesisOp ApplyT (analysis)
	spanEncode                      // core.Encoder.EncodeWindow
	spanMarshal                     // core.Packet.Marshal
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"rx.parse", "rx.push", "rx.endslot", "rx.close", "telemetry.scrape",
	"coordinator.ref_decode", "decode", "huffman", "fista", "reconstruct",
	"metrics.estimate", "sensing.apply", "sensing.apply_t", "wavelet.synth",
	"wavelet.analysis", "core.encode", "core.marshal",
}

// span is one timed call. Spans are recorded in start order, and a
// child always follows its parent.
type span struct {
	start, end int64 // ns since the recorder's epoch
	parent     int32 // index of the enclosing span, −1 at top level
	window     int32 // sequence number of the window being served, −1 if none
	kind       spanKind
}

// spanRecorder keeps every span of a traced run in memory.
type spanRecorder struct {
	epoch time.Time
	spans []span
	open  int32 // innermost open span, −1 when none is
	// window labels the spans begun from now on.
	window int32
	// ownAllocs counts the bytes the recorder allocated itself, so a
	// layer's allocations measured around a traced call can leave them
	// out.
	ownAllocs uint64
}

func newSpanRecorder() *spanRecorder {
	return &spanRecorder{epoch: time.Now(), open: -1, window: -1}
}

func (r *spanRecorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span of kind k inside the innermost open span.
func (r *spanRecorder) begin(k spanKind) int32 {
	if len(r.spans) == cap(r.spans) {
		grown := make([]span, len(r.spans), 2*cap(r.spans)+4096)
		copy(grown, r.spans)
		r.spans = grown
		r.ownAllocs += uint64(cap(grown)) * uint64(unsafe.Sizeof(span{}))
	}
	r.spans = append(r.spans, span{start: r.now(), parent: r.open, window: r.window, kind: k})
	r.open = int32(len(r.spans) - 1)
	return r.open
}

// end closes span i, which must be the innermost open one.
func (r *spanRecorder) end(i int32) {
	r.spans[i].end = r.now()
	r.open = r.spans[i].parent
}

// wrapOp returns op with every Apply and ApplyT recorded as a span.
func (r *spanRecorder) wrapOp(op linalg.Op[float32], apply, applyT spanKind) linalg.Op[float32] {
	return linalg.Op[float32]{
		InDim:  op.InDim,
		OutDim: op.OutDim,
		Apply: func(dst, x []float32) {
			i := r.begin(apply)
			op.Apply(dst, x)
			r.end(i)
		},
		ApplyT: func(dst, y []float32) {
			i := r.begin(applyT)
			op.ApplyT(dst, y)
			r.end(i)
		},
	}
}

// selfTimes returns every span's duration minus the part of its
// interval that its direct children cover. Children are taken in the
// order recorded, which is start order, and clipped to their parent.
func selfTimes(spans []span) []int64 {
	self := make([]int64, len(spans))
	covered := make([]int64, len(spans)) // where the children's coverage ends so far
	for i, s := range spans {
		self[i] = s.end - s.start
		covered[i] = s.start
	}
	for _, c := range spans {
		p := c.parent
		if p < 0 {
			continue
		}
		lo := max(c.start, covered[p])
		hi := min(c.end, spans[p].end)
		if hi > lo {
			self[p] -= hi - lo
			covered[p] = hi
		}
	}
	return self
}

// layerTotals sums spans by kind.
type layerTotals struct {
	n, total, self [numSpanKinds]int64
}

func summarize(spans []span) layerTotals {
	var t layerTotals
	self := selfTimes(spans)
	for i, s := range spans {
		t.n[s.kind]++
		t.total[s.kind] += s.end - s.start
		t.self[s.kind] += self[i]
	}
	return t
}

// meanNs is the mean duration of the spans of kind k (0 with none).
func (t *layerTotals) meanNs(k spanKind) float64 {
	return ratio(float64(t.total[k]), float64(t.n[k]))
}

// writeSpans dumps the spans to path as gzipped tab-separated text, one
// span per line: kind, window, parent index, start and end in ns.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		f.Close()
		return err
	}
	w := bufio.NewWriter(zw)
	w.WriteString("kind\twindow\tparent\tstart_ns\tend_ns\n")
	var line []byte
	for _, s := range spans {
		line = append(line[:0], spanNames[s.kind]...)
		line = append(line, '\t')
		line = strconv.AppendInt(line, int64(s.window), 10)
		line = append(line, '\t')
		line = strconv.AppendInt(line, int64(s.parent), 10)
		line = append(line, '\t')
		line = strconv.AppendInt(line, s.start, 10)
		line = append(line, '\t')
		line = strconv.AppendInt(line, s.end, 10)
		line = append(line, '\n')
		w.Write(line)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
