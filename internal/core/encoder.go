package core

import (
	"encoding/binary"
	"fmt"

	"csecg/internal/huffman"
	"csecg/internal/sensing"
)

// Encoder is the mote-side compressor. It consumes 2-second windows of
// raw 11-bit ADC samples and produces packets. All arithmetic is
// integer-only — the exact operations the MSP430 port performs:
// d additions per sample for the measurement, one subtraction per
// measurement for the redundancy removal, and a table lookup per symbol
// for the Huffman stage.
type Encoder struct {
	p     Params
	phi   *sensing.SparseBinary
	prevY []int32
	seq   uint32
	// forceKey promotes the next packet to a key frame (the NACK
	// protocol's on-demand resync), independent of the schedule.
	forceKey bool
	// scratch buffers reused across windows (the mote has 10 kB of RAM).
	y       []int32
	symbols []int
	escapes []int32
	centred []int16
	// pkt and its payload buffers model the firmware's single TX packet
	// buffer: every Encode call returns &pkt, so the steady-state encode
	// path allocates nothing. Callers that retain a packet past the next
	// encode call must Clone it.
	pkt        Packet
	keyPayload []byte
	bw         *huffman.BitWriter
}

// NewEncoder builds an encoder for the given parameters.
func NewEncoder(p Params) (*Encoder, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	phi, err := p.sensingMatrix()
	if err != nil {
		return nil, err
	}
	return &Encoder{
		p:          p,
		phi:        phi,
		prevY:      make([]int32, p.M),
		y:          make([]int32, p.M),
		symbols:    make([]int, 0, p.M),
		escapes:    make([]int32, 0, p.M),
		centred:    make([]int16, p.N),
		keyPayload: make([]byte, 2*p.M),
		bw:         huffman.NewBitWriter(),
	}, nil
}

// Params returns the resolved parameters.
func (e *Encoder) Params() Params { return e.p }

// ForceKeyFrame promotes the next encoded window to a key frame
// regardless of the schedule — the response to a KindKeyRequest control
// packet. The scheduled key-frame cadence is unaffected.
func (e *Encoder) ForceKeyFrame() { e.forceKey = true }

// Reset returns the encoder to the start-of-stream state (next packet is
// a key frame, sequence restarts).
func (e *Encoder) Reset() {
	e.seq = 0
	e.forceKey = false
	for i := range e.prevY {
		e.prevY[i] = 0
	}
}

// EncodeWindow compresses one window of raw ADC samples (values
// 0..2047). It returns the packet to transmit. The window length must
// equal Params().N.
//
// The returned packet is owned by the encoder — the analogue of the
// firmware's single TX buffer — and is overwritten by the next
// EncodeWindow call. Clone it to retain it longer.
//
//csecg:hotpath one call per 2-second window; must not allocate
func (e *Encoder) EncodeWindow(window []int16) (*Packet, error) {
	if len(window) != e.p.N {
		return nil, fmt.Errorf("core: window length %d, want %d", len(window), e.p.N) //csecg:allocok error path, never taken per-sample
	}
	// Stage 0: clamp to the ADC's physical range (out-of-range input
	// would otherwise wrap the centering subtraction at −32768) and
	// re-center (the baseline carries no information).
	for i, v := range window {
		v = min(max(v, 0), ADCMax)
		e.centred[i] = v - ADCBaseline
	}
	// Stage 1: CS measurement, integer adds only.
	e.phi.MeasureInt(e.y, e.centred)
	// The agreed LSB drop (round-to-nearest arithmetic shift) bounds
	// the difference range. The rounding runs in int64: v + half wraps
	// int32 when v is near MaxInt32, and −(−v + half) wraps outright at
	// v = MinInt32. The local MaxMeasurementShift clamp restates
	// withDefaults' validation where the interval engine can see it.
	if s := e.p.MeasurementShift; s > 0 {
		if s > MaxMeasurementShift {
			s = MaxMeasurementShift
		}
		half := int64(1) << (s - 1)
		for i, v := range e.y {
			if v >= 0 {
				e.y[i] = int32((int64(v) + half) >> s)
			} else {
				e.y[i] = int32(-((-int64(v) + half) >> s))
			}
		}
	}
	isKey := e.forceKey || e.p.KeyFrameInterval <= 1 || e.seq%uint32(e.p.KeyFrameInterval) == 0
	e.forceKey = false
	var pkt *Packet
	if isKey {
		pkt = e.encodeKey()
	} else {
		var err error
		pkt, err = e.encodeDelta()
		if err != nil {
			return nil, err
		}
	}
	copy(e.prevY, e.y)
	e.seq++
	return pkt, nil
}

// encodeKey packs the measurements raw as little-endian int16 (the
// measurement of a zero-centered 11-bit window through a weight-d binary
// column fits comfortably: |y| ≤ d·1024 = 12288 for d=12) into the
// preallocated key payload buffer.
//
//csecg:hotpath key-frame half of the window completion path
func (e *Encoder) encodeKey() *Packet {
	for i, v := range e.y {
		binary.LittleEndian.PutUint16(e.keyPayload[2*i:], uint16(clampInt16(v)))
	}
	e.pkt = Packet{Seq: e.seq, Kind: KindKey, Payload: e.keyPayload}
	return &e.pkt
}

// encodeDelta Huffman-codes the measurement differences. Differences
// outside [−256, 254] use the escape codeword followed by a raw 24-bit
// value (two's complement), wide enough for any column weight.
//
//csecg:hotpath delta-frame half of the window completion path
func (e *Encoder) encodeDelta() (*Packet, error) {
	e.symbols = e.symbols[:0]
	e.escapes = e.escapes[:0]
	for i, v := range e.y {
		d := v - e.prevY[i] //csecg:rangeok both operands are measurements: |y| ≤ d·ADCBaseline = 12288 after the ADC clamp (encodeKey's comment), so |d| ≤ 24576 ≪ 2³¹
		if d >= -NumDiffSymbols/2 && d < NumDiffSymbols/2-1 {
			e.symbols = append(e.symbols, int(d)+NumDiffSymbols/2) //csecg:allocok capacity M, preallocated
		} else {
			e.symbols = append(e.symbols, EscapeSymbol) //csecg:allocok capacity M, preallocated
			e.escapes = append(e.escapes, d)            //csecg:allocok capacity M, preallocated
		}
	}
	e.bw.Reset()
	esc := 0
	for _, s := range e.symbols {
		if err := e.p.Codebook.Encode(e.bw, s); err != nil {
			return nil, fmt.Errorf("core: entropy coding: %w", err) //csecg:allocok error path, never taken per-sample
		}
		if s == EscapeSymbol {
			e.bw.WriteBits(uint32(e.escapes[esc])&0xFFFFFF, 24)
			esc++
		}
	}
	e.pkt = Packet{
		Seq:        e.seq,
		Kind:       KindDelta,
		NumSymbols: uint16(len(e.symbols)),
		Payload:    e.bw.Bytes(),
	}
	return &e.pkt, nil
}

func clampInt16(v int32) int16 {
	switch {
	case v > 1<<15-1:
		return 1<<15 - 1
	case v < -1<<15:
		return -1 << 15
	}
	return int16(v)
}

// RawWindowBits is the uncompressed cost of one window: N samples at the
// ADC's 11+1 bit storage width (MIT-BIH stores 11-bit samples in 12-bit
// fields; streaming uncompressed sends the same).
func (e *Encoder) RawWindowBits() int { return e.p.N * 12 }
