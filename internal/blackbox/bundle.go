// Diagnostics bundle format: versioned JSONL, one self-describing
// record per line. Line 1 is the header (record counts, eviction
// accounting, session metadata); then one metrics record (the telemetry
// snapshot), the event records, the per-window decode summaries, and
// finally the raw frames (base64 wire bytes) oldest-first. The format
// is append-only versioned: readers reject versions they do not know,
// and unknown JSON fields are ignored so old readers survive additive
// changes within a version.

package blackbox

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"csecg/internal/coordinator"
	"csecg/internal/core"
	"csecg/internal/telemetry"
)

// BundleVersion is the current bundle format version; ParseBundle
// rejects anything else.
const BundleVersion = 1

// SessionMeta is everything replay needs to rebuild the decode stack:
// the resolved CS parameters, the platform mode, and the transport
// configuration. Store resolved params (coordinator.Decoder.Params),
// not user input — replay must not re-derive defaults that may change.
type SessionMeta struct {
	Session string `json:"session"`

	// Resolved core.Params (MeasurementShift is the resolved value; 0
	// really means zero shift).
	N                int    `json:"n"`
	M                int    `json:"m"`
	D                int    `json:"d"`
	Seed             uint16 `json:"seed"`
	Basis            int    `json:"basis"`
	WaveletOrder     int    `json:"wavelet_order"`
	WaveletLevels    int    `json:"wavelet_levels"`
	KeyFrameInterval int    `json:"key_frame_interval"`
	MeasurementShift int    `json:"measurement_shift"`
	// CustomCodebook marks a session whose entropy codebook was not the
	// default — its bundles cannot be replayed (the table is not
	// serialized).
	CustomCodebook bool `json:"custom_codebook,omitempty"`

	// Mode is the platform cost model (coordinator.Mode).
	Mode int `json:"mode"`

	// Transport configuration (resolved fields of
	// coordinator.TransportConfig).
	NACK           bool `json:"nack,omitempty"`
	ReorderWindow  int  `json:"reorder_window,omitempty"`
	MaxRetries     int  `json:"max_retries,omitempty"`
	BackoffWindows int  `json:"backoff_windows,omitempty"`
	WaitWindows    int  `json:"wait_windows,omitempty"`
	QueueLimit     int  `json:"queue_limit,omitempty"`
	DecodesPerSlot int  `json:"decodes_per_slot,omitempty"`

	// Reproducible is false when the session mutated decode state in
	// ways a bundle cannot capture (e.g. SetCosts mid-run); replay
	// refuses to diff rather than reporting false divergence.
	Reproducible         bool   `json:"reproducible"`
	UnreproducibleReason string `json:"unreproducible_reason,omitempty"`

	// TraceSeed is the session's causal trace-ID seed
	// (telemetry.TraceSeed of the session label; 0 → untraced). Replay
	// installs it on the rebuilt receiver so replayed window records
	// reproduce the recorded trace IDs bit-for-bit. Added in-place
	// within bundle version 1: readers ignore the unknown field, absent
	// fields decode as 0.
	TraceSeed uint64 `json:"trace_seed,omitempty"`
}

// NewSessionMeta captures replayable session metadata. p must be the
// decoder's resolved params (dec.Params()), t the receiver's transport
// configuration as constructed.
func NewSessionMeta(session string, p core.Params, mode coordinator.Mode, t coordinator.TransportConfig) SessionMeta {
	return SessionMeta{
		Session:          session,
		N:                p.N,
		M:                p.M,
		D:                p.D,
		Seed:             p.Seed,
		Basis:            int(p.Basis),
		WaveletOrder:     p.WaveletOrder,
		WaveletLevels:    p.WaveletLevels,
		KeyFrameInterval: p.KeyFrameInterval,
		MeasurementShift: p.MeasurementShift,
		CustomCodebook:   p.Codebook != nil && p.Codebook != core.DefaultCodebook(),
		Mode:             int(mode),
		NACK:             t.NACK,
		ReorderWindow:    t.ReorderWindow,
		MaxRetries:       t.MaxRetries,
		BackoffWindows:   t.BackoffWindows,
		WaitWindows:      t.WaitWindows,
		QueueLimit:       t.QueueLimit,
		DecodesPerSlot:   t.DecodesPerSlot,
		Reproducible:     true,
	}
}

// Params rebuilds the core parameters for replay.
func (m SessionMeta) Params() (core.Params, error) {
	if m.CustomCodebook {
		return core.Params{}, fmt.Errorf("blackbox: session %q used a custom codebook; bundle is not replayable", m.Session)
	}
	if m.N == 0 || m.M == 0 {
		return core.Params{}, fmt.Errorf("blackbox: bundle metadata missing resolved params (n=%d m=%d)", m.N, m.M)
	}
	shift := m.MeasurementShift
	if shift == 0 {
		// core.Params treats 0 as "use the default"; a recorded zero is
		// the resolved value zero, spelled -1 on input.
		shift = -1
	}
	return core.Params{
		N:                m.N,
		M:                m.M,
		D:                m.D,
		Seed:             m.Seed,
		Basis:            core.Basis(m.Basis),
		WaveletOrder:     m.WaveletOrder,
		WaveletLevels:    m.WaveletLevels,
		KeyFrameInterval: m.KeyFrameInterval,
		MeasurementShift: shift,
	}, nil
}

// Transport rebuilds the receiver configuration for replay.
func (m SessionMeta) Transport() coordinator.TransportConfig {
	return coordinator.TransportConfig{
		NACK:           m.NACK,
		ReorderWindow:  m.ReorderWindow,
		MaxRetries:     m.MaxRetries,
		BackoffWindows: m.BackoffWindows,
		WaitWindows:    m.WaitWindows,
		QueueLimit:     m.QueueLimit,
		DecodesPerSlot: m.DecodesPerSlot,
	}
}

// Header is a bundle's first record.
type Header struct {
	Version int    `json:"version"`
	Session string `json:"session"`
	// Ordinal numbers this session's bundles from 0 (it appears in the
	// filename, keeping names deterministic without a wall clock).
	Ordinal int    `json:"ordinal"`
	Cause   string `json:"cause"`
	Detail  string `json:"detail,omitempty"`
	// TimelineNs is the modeled session time of the trigger (0 when the
	// trigger source has no timeline).
	TimelineNs int64 `json:"timeline_ns,omitempty"`
	// Slot is the receiver's last observed window slot at seal.
	Slot int `json:"slot"`
	// Record counts (after any size-cap truncation).
	Windows int `json:"windows"`
	Frames  int `json:"frames"`
	Events  int `json:"events"`
	// Captured is the monotonic all-time window count; with the
	// eviction counters it tells how much history the rings dropped.
	Captured       int64 `json:"captured_windows"`
	EvictedFrames  int64 `json:"evicted_frames,omitempty"`
	EvictedWindows int64 `json:"evicted_windows,omitempty"`
	EvictedEvents  int64 `json:"evicted_events,omitempty"`
	// Wrapped means the frame ring evicted history: the bundle does not
	// reach back to the session start, so replay resumes mid-stream and
	// compares solver fields only (see Replay). Truncated means the
	// size cap dropped oldest frames at seal time — same consequence.
	Wrapped   bool `json:"wrapped,omitempty"`
	Truncated bool `json:"truncated,omitempty"`
	// DroppedFrames counts frames the size cap removed.
	DroppedFrames int `json:"dropped_frames,omitempty"`

	Meta SessionMeta `json:"meta"`
}

// Complete reports whether the frame stream reaches back to the session
// start — the precondition for bit-exact replay.
func (h Header) Complete() bool { return !h.Wrapped && !h.Truncated }

// EventRecord is one health/SLO/failure/trigger event.
type EventRecord struct {
	Kind       string `json:"kind"`
	Slot       int    `json:"slot"`
	TimelineNs int64  `json:"timeline_ns,omitempty"`
	Ordinal    int64  `json:"ordinal"`
	Seq        uint32 `json:"seq,omitempty"`
	Name       string `json:"name,omitempty"`
	From       string `json:"from,omitempty"`
	To         string `json:"to,omitempty"`
	Cause      string `json:"cause,omitempty"`
	Panicked   bool   `json:"panicked,omitempty"`
	Suppressed bool   `json:"suppressed,omitempty"`
}

// FrameRecord is one raw post-CRC wire frame and the receiver slot it
// arrived in.
type FrameRecord struct {
	Slot int    `json:"slot"`
	Seq  uint32 `json:"seq"`
	Kind uint8  `json:"kind"`
	Data []byte `json:"data"`
}

// Bundle is a parsed diagnostics bundle.
type Bundle struct {
	Header  Header
	Metrics telemetry.Snapshot
	Events  []EventRecord
	Windows []coordinator.WindowCapture
	Frames  []FrameRecord
}

// JSONL line wrappers: each record carries a "type" discriminator.
type headerLine struct {
	Type string `json:"type"`
	Header
}

type metricsLine struct {
	Type string `json:"type"`
	telemetry.Snapshot
}

type eventLine struct {
	Type string `json:"type"`
	EventRecord
}

type windowLine struct {
	Type string `json:"type"`
	coordinator.WindowCapture
}

type frameLine struct {
	Type string `json:"type"`
	FrameRecord
}

// bundleName builds the deterministic bundle filename: session, per-
// session seal ordinal, and cause. No wall clock — two identical
// sessions produce identical names.
func bundleName(h Header) string {
	return fmt.Sprintf("bundle-%s-%03d-%s.jsonl", sanitizeName(h.Session), h.Ordinal, h.Cause)
}

// sanitizeName maps a session name to a filesystem-safe slug.
func sanitizeName(s string) string {
	if s == "" {
		return "session"
	}
	b := []byte(s)
	for i, c := range b {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
		default:
			b[i] = '-'
		}
	}
	return string(b)
}

// encodeBundle renders the JSONL bytes, enforcing the size cap by
// dropping oldest frames (decode summaries and events always survive —
// they are the incident narrative; frames are the replay payload).
func encodeBundle(b *Bundle, maxBytes int) ([]byte, error) {
	line := func(v any) ([]byte, error) {
		enc, err := json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("blackbox: encoding bundle record: %w", err)
		}
		return append(enc, '\n'), nil
	}

	var body bytes.Buffer
	ml, err := line(metricsLine{Type: "metrics", Snapshot: b.Metrics})
	if err != nil {
		return nil, err
	}
	body.Write(ml) //csecg:errok bytes.Buffer never fails
	for _, e := range b.Events {
		l, err := line(eventLine{Type: "event", EventRecord: e})
		if err != nil {
			return nil, err
		}
		body.Write(l) //csecg:errok bytes.Buffer never fails
	}
	for _, w := range b.Windows {
		l, err := line(windowLine{Type: "window", WindowCapture: w})
		if err != nil {
			return nil, err
		}
		body.Write(l) //csecg:errok bytes.Buffer never fails
	}

	frameLines := make([][]byte, len(b.Frames))
	framesBytes := 0
	for i, f := range b.Frames {
		if frameLines[i], err = line(frameLine{Type: "frame", FrameRecord: f}); err != nil {
			return nil, err
		}
		framesBytes += len(frameLines[i])
	}

	// Measure the header at its largest (truncation flags set) so the
	// frame budget is conservative, then drop oldest frames to fit.
	h := b.Header
	h.Truncated = true
	h.DroppedFrames = len(b.Frames)
	worst, err := line(headerLine{Type: "header", Header: h})
	if err != nil {
		return nil, err
	}
	budget := maxBytes - body.Len() - len(worst)
	keepFrom := 0
	for keepFrom < len(frameLines) && framesBytes > budget {
		framesBytes -= len(frameLines[keepFrom])
		keepFrom++
	}

	h = b.Header
	h.Frames = len(b.Frames) - keepFrom
	h.DroppedFrames = keepFrom
	h.Truncated = keepFrom > 0
	hl, err := line(headerLine{Type: "header", Header: h})
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	out.Grow(len(hl) + body.Len() + framesBytes)
	out.Write(hl)           //csecg:errok bytes.Buffer never fails
	out.Write(body.Bytes()) //csecg:errok bytes.Buffer never fails
	for _, fl := range frameLines[keepFrom:] {
		out.Write(fl) //csecg:errok bytes.Buffer never fails
	}
	return out.Bytes(), nil
}

// ParseBundle decodes JSONL bundle bytes. It is strict about the
// envelope (header first, known version) and lenient about unknown
// fields, so version-1 readers survive additive changes.
func ParseBundle(data []byte) (*Bundle, error) {
	b := &Bundle{}
	sawHeader := false
	for lineNo, raw := range bytes.Split(data, []byte("\n")) {
		raw = bytes.TrimSpace(raw)
		if len(raw) == 0 {
			continue
		}
		var disc struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(raw, &disc); err != nil {
			return nil, fmt.Errorf("blackbox: bundle line %d: %w", lineNo+1, err)
		}
		if !sawHeader && disc.Type != "header" {
			return nil, fmt.Errorf("blackbox: bundle line %d: first record is %q, want header", lineNo+1, disc.Type)
		}
		switch disc.Type {
		case "header":
			if sawHeader {
				return nil, fmt.Errorf("blackbox: bundle line %d: duplicate header", lineNo+1)
			}
			var hl headerLine
			if err := json.Unmarshal(raw, &hl); err != nil {
				return nil, fmt.Errorf("blackbox: bundle header: %w", err)
			}
			if hl.Version != BundleVersion {
				return nil, fmt.Errorf("blackbox: bundle version %d, this reader understands %d", hl.Version, BundleVersion)
			}
			b.Header = hl.Header
			sawHeader = true
		case "metrics":
			var ml metricsLine
			if err := json.Unmarshal(raw, &ml); err != nil {
				return nil, fmt.Errorf("blackbox: bundle line %d: %w", lineNo+1, err)
			}
			b.Metrics = ml.Snapshot
		case "event":
			var el eventLine
			if err := json.Unmarshal(raw, &el); err != nil {
				return nil, fmt.Errorf("blackbox: bundle line %d: %w", lineNo+1, err)
			}
			b.Events = append(b.Events, el.EventRecord)
		case "window":
			var wl windowLine
			if err := json.Unmarshal(raw, &wl); err != nil {
				return nil, fmt.Errorf("blackbox: bundle line %d: %w", lineNo+1, err)
			}
			b.Windows = append(b.Windows, wl.WindowCapture)
		case "frame":
			var fl frameLine
			if err := json.Unmarshal(raw, &fl); err != nil {
				return nil, fmt.Errorf("blackbox: bundle line %d: %w", lineNo+1, err)
			}
			b.Frames = append(b.Frames, fl.FrameRecord)
		default:
			return nil, fmt.Errorf("blackbox: bundle line %d: unknown record type %q", lineNo+1, disc.Type)
		}
	}
	if !sawHeader {
		return nil, fmt.Errorf("blackbox: bundle has no header record")
	}
	if len(b.Windows) != b.Header.Windows || len(b.Frames) != b.Header.Frames || len(b.Events) != b.Header.Events {
		return nil, fmt.Errorf("blackbox: bundle record counts (%d windows, %d frames, %d events) disagree with header (%d, %d, %d)",
			len(b.Windows), len(b.Frames), len(b.Events), b.Header.Windows, b.Header.Frames, b.Header.Events)
	}
	return b, nil
}

// ReadBundleFile loads and parses one bundle.
func ReadBundleFile(path string) (*Bundle, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseBundle(data)
}

// DirSink persists bundles as files in a directory (created on first
// write).
type DirSink string

// WriteBundle implements Sink.
func (d DirSink) WriteBundle(name string, data []byte) (string, error) {
	if err := os.MkdirAll(string(d), 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(string(d), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
