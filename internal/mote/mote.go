// Package mote models the encoder-side embedded platform: a Shimmer-like
// wireless node built around a 16-bit MSP430-class microcontroller at
// 8 MHz with a hardware multiplier, no FPU, 10 kB RAM and 48 kB flash.
//
// The actual encoder arithmetic is executed by internal/core using
// exactly the integer operations an MSP430 build performs; this package
// adds what silicon would add — a calibrated cycle-cost model, a memory-
// footprint accountant, and the real-time/CPU-usage bookkeeping that the
// paper reports (82 ms to CS-sample a 2-second window, < 5 % average CPU,
// 6.5 kB RAM / 7.5 kB flash).
package mote

import (
	"fmt"
	"time"

	"csecg/internal/core"
	"csecg/internal/huffman"
	"csecg/internal/telemetry"
)

// ClockHz is the MSP430F1611 system clock of the Shimmer mainboard.
const ClockHz = 8_000_000

// Costs holds per-operation cycle costs of the encoder's inner loops.
// The defaults are calibrated so the measurement stage of the default
// configuration (N=512, d=12) takes the paper's measured 82 ms: the
// dominant loop regenerates one support index (LCG16 draw, multiply-
// shift range reduction, rejection bookkeeping) and performs one
// 32-bit indexed add per nonzero, on a CPU whose native word is 16 bits.
type Costs struct {
	// SupportDraw covers one LCG16 step plus range reduction via the
	// hardware multiplier and duplicate rejection.
	SupportDraw int64
	// Add32 is a 32-bit accumulate through two 16-bit adds with carry,
	// with indexed addressing on both operands.
	Add32 int64
	// LoopNonzero is the per-nonzero loop overhead (pointer updates,
	// compare, branch).
	LoopNonzero int64
	// ShiftPerMeasurement covers the rounding right-shift of one
	// measurement.
	ShiftPerMeasurement int64
	// DiffPerMeasurement covers one 32-bit subtract plus range test.
	DiffPerMeasurement int64
	// HuffmanPerSymbol covers the codebook lookup and length fetch.
	HuffmanPerSymbol int64
	// HuffmanPerBit covers shifting one bit into the output buffer.
	HuffmanPerBit int64
	// PacketPerByte covers framing/checksum per output byte.
	PacketPerByte int64
}

// DefaultCosts returns the calibrated cost set.
func DefaultCosts() Costs {
	return Costs{
		SupportDraw:         60,
		Add32:               25,
		LoopNonzero:         22,
		ShiftPerMeasurement: 12,
		DiffPerMeasurement:  18,
		HuffmanPerSymbol:    45,
		HuffmanPerBit:       6,
		PacketPerByte:       10,
	}
}

// RetransmitSlotBytes is the RAM cost of one retransmit-ring slot: the
// largest framed packet the default configuration produces (a key frame
// of 2·M bytes plus framing), matching the existing PacketBuffer
// sizing.
const RetransmitSlotBytes = 640

// DefaultRetransmitRing is the ring size the transport layer requests
// when NACK resync is enabled: 4 slots ≈ 2.5 kB, which keeps the total
// footprint inside the MSP430F1611's 10 kB RAM (see MemoryFootprint).
const DefaultRetransmitRing = 4

// moteMetrics caches the telemetry pointers the encoder records into,
// resolved once at Instrument time so the encode path stays lock-free.
// All recorded values are raw integers (cycles, bytes, counts) — float
// conversion is host-side, keeping the calls nofpu-clean.
type moteMetrics struct {
	windows, keyFrames, retransmits, txBytes        *telemetry.Counter
	encodeCycles, measureCycles, wireBytesPerWindow *telemetry.Histogram
}

// Model is an instrumented encoder: it runs the real core.Encoder and
// reports modeled MSP430 cycle counts alongside each packet.
type Model struct {
	enc   *core.Encoder
	costs Costs

	// ring holds the last len(ring) encoded packets for selective
	// retransmission (nil when the NACK protocol is disabled).
	ring        []*core.Packet
	retransmits int64

	totalCycles  int64
	totalWindows int64

	met *moteMetrics
}

// New builds a mote model around the given pipeline parameters.
func New(p core.Params) (*Model, error) {
	enc, err := core.NewEncoder(p)
	if err != nil {
		return nil, err
	}
	return &Model{enc: enc, costs: DefaultCosts()}, nil
}

// Instrument attaches session telemetry: encode-side counters and
// cycle histograms recorded on every window. A nil registry detaches.
func (m *Model) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		m.met = nil
		return
	}
	m.met = &moteMetrics{
		windows:            reg.Counter("mote_windows_total"),
		keyFrames:          reg.Counter("mote_keyframes_total"),
		retransmits:        reg.Counter("mote_retransmits_total"),
		txBytes:            reg.Counter("mote_tx_bytes_total"),
		encodeCycles:       reg.Histogram("mote_encode_cycles"),
		measureCycles:      reg.Histogram("mote_measure_cycles"),
		wireBytesPerWindow: reg.Histogram("mote_wire_bytes_per_window"),
	}
}

// Params returns the resolved pipeline parameters.
func (m *Model) Params() core.Params { return m.enc.Params() }

// Reboot models a brownout restart: volatile state is lost — the
// encoder restarts its sequence space (the next window is a seq-0 key
// frame) and the retransmit ring empties — while flash-resident state
// (codebook, CRC table, code) survives. The coordinator detects the
// wrapped sequence and resynchronizes on the boot key frame.
func (m *Model) Reboot() {
	m.enc.Reset()
	for i := range m.ring {
		m.ring[i] = nil
	}
}

// EnableRetransmitBuffer allocates a k-slot retransmit ring holding the
// last k encoded packets for the NACK protocol. It fails if the
// resulting footprint would not fit the MSP430's RAM, or for a k
// outside [1, core.MaxNackRange]. k = 0 disables the ring.
func (m *Model) EnableRetransmitBuffer(k int) error {
	if k == 0 {
		m.ring = nil
		return nil
	}
	if k < 0 || k > core.MaxNackRange {
		return fmt.Errorf("mote: retransmit ring %d out of [0, %d]", k, core.MaxNackRange)
	}
	old := m.ring
	m.ring = make([]*core.Packet, k)
	if err := m.CheckFits(); err != nil {
		m.ring = old
		return fmt.Errorf("mote: retransmit ring %d slots: %w", k, err)
	}
	return nil
}

// Retransmit fetches the packet with the given sequence number from the
// ring, charging the re-framing cycles the UART feed costs. It returns
// false when the packet has aged out of the ring (the coordinator must
// fall back to a key-frame request).
func (m *Model) Retransmit(seq uint32) (*core.Packet, bool) {
	if len(m.ring) == 0 {
		return nil, false
	}
	p := m.ring[int(seq)%len(m.ring)]
	if p == nil || p.Seq != seq {
		return nil, false
	}
	m.retransmits++
	m.totalCycles += int64(p.WireSize()) * m.costs.PacketPerByte
	if m.met != nil {
		m.met.retransmits.Inc()
		m.met.txBytes.Add(int64(p.WireSize()))
	}
	return p, true
}

// Retransmits counts the ring hits served so far.
func (m *Model) Retransmits() int64 { return m.retransmits }

// RequestKeyFrame promotes the next encoded window to a key frame — the
// mote's response to a KindKeyRequest control packet.
func (m *Model) RequestKeyFrame() { m.enc.ForceKeyFrame() }

// Report describes the modeled execution of one window.
type Report struct {
	// Packet is the encoded output.
	Packet *core.Packet
	// MeasureCycles, ShiftCycles, DiffCycles, EntropyCycles and
	// FramingCycles break down the stage costs.
	MeasureCycles, ShiftCycles, DiffCycles, EntropyCycles, FramingCycles int64
	// TotalCycles is the window's full encode cost.
	TotalCycles int64
	// EncodeTime is TotalCycles at the 8 MHz clock.
	EncodeTime time.Duration
	// CPUUsage is EncodeTime over the 2-second window period.
	//csecg:host modeled utilization, computed by the host-side cost model
	CPUUsage float64
	// RealTime reports whether the encode fits in the window period.
	RealTime bool
}

// EncodeWindow compresses one window and reports the modeled cost.
func (m *Model) EncodeWindow(window []int16) (*Report, error) {
	pkt, err := m.enc.EncodeWindow(window)
	if err != nil {
		return nil, err
	}
	// The encoder returns its single TX buffer; clone once so the report
	// and the retransmit ring own this window's bytes.
	pkt = pkt.Clone()
	p := m.enc.Params()
	c := m.costs
	nnz := int64(p.N) * int64(p.D)
	r := &Report{Packet: pkt}
	r.MeasureCycles = nnz * (c.SupportDraw + c.Add32 + c.LoopNonzero)
	r.ShiftCycles = int64(p.M) * c.ShiftPerMeasurement
	if pkt.Kind == core.KindDelta {
		r.DiffCycles = int64(p.M) * c.DiffPerMeasurement
		payloadBits := int64(len(pkt.Payload)) * 8
		r.EntropyCycles = int64(pkt.NumSymbols)*c.HuffmanPerSymbol + payloadBits*c.HuffmanPerBit
	}
	r.FramingCycles = int64(pkt.WireSize()) * c.PacketPerByte
	r.TotalCycles = r.MeasureCycles + r.ShiftCycles + r.DiffCycles + r.EntropyCycles + r.FramingCycles
	if len(m.ring) > 0 {
		m.ring[int(pkt.Seq)%len(m.ring)] = pkt
	}
	if m.met != nil {
		m.met.windows.Inc()
		if pkt.Kind == core.KindKey {
			m.met.keyFrames.Inc()
		}
		m.met.txBytes.Add(int64(pkt.WireSize()))
		m.met.encodeCycles.Observe(r.TotalCycles)
		m.met.measureCycles.Observe(r.MeasureCycles + r.ShiftCycles)
		m.met.wireBytesPerWindow.Observe(int64(pkt.WireSize()))
	}
	r.EncodeTime = time.Duration(float64(r.TotalCycles) / ClockHz * float64(time.Second)) //csecg:host cycle→time accounting
	window2s := float64(p.N) / core.FsMote                                                //csecg:host cycle→time accounting
	r.CPUUsage = r.EncodeTime.Seconds() / window2s                                        //csecg:host cycle→time accounting
	r.RealTime = r.EncodeTime.Seconds() <= window2s                                       //csecg:host cycle→time accounting
	m.totalCycles += r.TotalCycles
	m.totalWindows++
	return r, nil
}

// AverageCPUUsage returns the mean CPU usage over all encoded windows.
//
//csecg:host cycle/energy accounting runs on the host model
func (m *Model) AverageCPUUsage() float64 {
	if m.totalWindows == 0 {
		return 0
	}
	p := m.enc.Params()
	window := float64(p.N) / core.FsMote
	return float64(m.totalCycles) / ClockHz / (float64(m.totalWindows) * window)
}

// MeasurementLatency returns the modeled time of the CS measurement
// stage alone — the figure the paper quotes as "a 2-second vector is now
// CS-sampled in 82 ms" for d = 12.
//
//csecg:host cycle/energy accounting runs on the host model
func (m *Model) MeasurementLatency() time.Duration {
	p := m.enc.Params()
	c := m.costs
	nnz := int64(p.N) * int64(p.D)
	cycles := nnz * (c.SupportDraw + c.Add32 + c.LoopNonzero)
	return time.Duration(float64(cycles) / ClockHz * float64(time.Second))
}

// Memory describes the static footprint of the encoder build.
type Memory struct {
	// RAM components (bytes). RetransmitRing is zero unless the NACK
	// protocol's ring buffer is enabled.
	SampleBuffers, MeasurementState, SymbolScratch, PacketBuffer, RetransmitRing, BTStack, StackMisc int
	// Flash components (bytes).
	CodeFlash, CRCTableFlash, CodebookFlash int
}

// RAMTotal sums the RAM components.
func (mem Memory) RAMTotal() int {
	return mem.SampleBuffers + mem.MeasurementState + mem.SymbolScratch +
		mem.PacketBuffer + mem.RetransmitRing + mem.BTStack + mem.StackMisc
}

// FlashTotal sums the flash components.
func (mem Memory) FlashTotal() int { return mem.CodeFlash + mem.CRCTableFlash + mem.CodebookFlash }

// MemoryFootprint accounts the encoder's RAM and flash consumption for
// the configured parameters, mirroring the paper's 6.5 kB RAM / 7.5 kB
// flash (1.5 kB of it codebook) budget at the default configuration.
func (m *Model) MemoryFootprint() Memory {
	p := m.enc.Params()
	return Memory{
		// Double-buffered 2-second sample window (ping-pong so the ADC
		// fills one while the other is encoded).
		SampleBuffers: 2 * p.N * 2,
		// Current and previous measurement vectors, 16-bit after the
		// LSB drop.
		MeasurementState: 2 * p.M * 2,
		// Difference/symbol scratch shared with the bit writer.
		SymbolScratch: p.M * 2,
		// One framed packet in flight to the Bluetooth module.
		PacketBuffer: RAMPacketBuffer,
		// Bounded retransmit ring of the NACK protocol (0 when
		// disabled, the paper's baseline build).
		RetransmitRing: len(m.ring) * RetransmitSlotBytes,
		// Bluetooth stack working set (connection state, FIFO).
		BTStack: RAMBTStack,
		// Call stack and globals of the remaining firmware.
		StackMisc: RAMStackMisc,
		// Encoder code: measurement, difference, entropy and framing
		// stages plus drivers.
		CodeFlash: FlashCode,
		// Byte-indexed CRC-16/CCITT lookup table used by the packet
		// framer (generated offline, flashed with the firmware).
		CRCTableFlash: FlashCRCTable,
		// Offline-trained codebook: 1 kB codewords + 512 B lengths
		// (+4 B header), the layout of huffman.Serialize.
		CodebookFlash: huffman.SerializedSize(core.NumDiffSymbols),
	}
}

// CheckFits verifies the footprint against the MSP430F1611's 10 kB RAM
// and 48 kB flash.
func (m *Model) CheckFits() error {
	mem := m.MemoryFootprint()
	const ramLimit, flashLimit = RAMBudget, FlashBudget
	if mem.RAMTotal() > ramLimit {
		return fmt.Errorf("mote: RAM footprint %d B exceeds %d B", mem.RAMTotal(), ramLimit)
	}
	if mem.FlashTotal() > flashLimit {
		return fmt.Errorf("mote: flash footprint %d B exceeds %d B", mem.FlashTotal(), flashLimit)
	}
	return nil
}
