package core

import (
	"encoding/binary"
	"fmt"
)

// PacketKind distinguishes the downlink data frames — key frames
// (measurements coded raw, stream resynchronization points) and delta
// frames (Huffman-coded differences against the previous window's
// measurements) — from the uplink control frames of the NACK resync
// protocol.
type PacketKind uint8

// Packet kinds.
const (
	KindKey PacketKind = iota + 1
	KindDelta
	// KindNack travels coordinator→mote: the receiver detected a
	// sequence gap and requests selective retransmission of a short
	// range from the mote's bounded retransmit buffer. Seq carries the
	// first missing sequence number; the one-byte payload the count.
	KindNack
	// KindKeyRequest travels coordinator→mote: the receiver has given
	// up on retransmission (buffer aged out, or too many NACKs lost)
	// and asks for an on-demand key frame to resynchronize. Seq carries
	// the receiver's next expected sequence number.
	KindKeyRequest
)

// IsControl reports whether the kind travels on the coordinator→mote
// control channel rather than the data downlink.
func (k PacketKind) IsControl() bool { return k == KindNack || k == KindKeyRequest }

// MaxNackRange bounds a single NACK's retransmission request; it is the
// largest ring any mote build can afford within the MSP430 RAM budget.
const MaxNackRange = 8

// NewNack builds a control packet requesting retransmission of count
// packets starting at firstSeq. The count saturates at MaxNackRange.
func NewNack(firstSeq uint32, count int) *Packet {
	if count < 1 {
		count = 1
	}
	if count > MaxNackRange {
		count = MaxNackRange
	}
	return &Packet{Seq: firstSeq, Kind: KindNack, Payload: []byte{byte(count)}}
}

// NackRange extracts the requested retransmission range from a KindNack
// packet.
func NackRange(p *Packet) (firstSeq uint32, count int, err error) {
	if p.Kind != KindNack {
		return 0, 0, fmt.Errorf("core: NackRange on %d packet", p.Kind)
	}
	if len(p.Payload) != 1 || p.Payload[0] < 1 || int(p.Payload[0]) > MaxNackRange {
		return 0, 0, fmt.Errorf("core: malformed NACK payload %v", p.Payload)
	}
	return p.Seq, int(p.Payload[0]), nil
}

// NewKeyRequest builds a control packet asking for an on-demand key
// frame; nextSeq is the receiver's next expected sequence number.
func NewKeyRequest(nextSeq uint32) *Packet {
	return &Packet{Seq: nextSeq, Kind: KindKeyRequest}
}

// Packet is one encoded 2-second window as it travels over the wireless
// link.
type Packet struct {
	// Seq is the window sequence number.
	Seq uint32
	// Kind marks key vs delta coding.
	Kind PacketKind
	// NumSymbols is the entropy-coded symbol count (delta frames).
	NumSymbols uint16
	// Payload carries the Huffman bitstream (delta) or packed 16-bit
	// measurements (key).
	Payload []byte
}

// Clone returns a deep copy of p with its own payload buffer. Encoder
// packets alias the encoder's single TX buffer and are overwritten by
// the next encode call; any component that retains a packet across
// windows (retransmit rings, reassembly buffers, recorded sessions)
// must clone it first.
func (p *Packet) Clone() *Packet {
	q := *p
	if p.Payload != nil {
		q.Payload = make([]byte, len(p.Payload))
		copy(q.Payload, p.Payload)
	}
	return &q
}

// packet wire layout (little-endian):
//
//	magic      uint8  = 0xC5
//	kind       uint8
//	seq        uint32
//	numSymbols uint16
//	payloadLen uint16
//	payload    []byte
//	crc        uint16 (CRC-16/CCITT-FALSE, over header+payload)
const (
	packetMagic  = 0xC5
	headerBytes  = 10
	trailerBytes = 2
)

// WireSize returns the marshaled size in bytes.
func (p *Packet) WireSize() int { return headerBytes + len(p.Payload) + trailerBytes }

// Marshal serializes the packet.
func (p *Packet) Marshal() ([]byte, error) {
	if len(p.Payload) > 0xFFFF {
		return nil, fmt.Errorf("core: payload %d bytes exceeds format limit", len(p.Payload))
	}
	out := make([]byte, p.WireSize())
	out[0] = packetMagic
	out[1] = byte(p.Kind)
	binary.LittleEndian.PutUint32(out[2:], p.Seq)
	binary.LittleEndian.PutUint16(out[6:], p.NumSymbols)
	binary.LittleEndian.PutUint16(out[8:], uint16(len(p.Payload)))
	copy(out[headerBytes:], p.Payload)
	sum := crc16(out[:headerBytes+len(p.Payload)])
	binary.LittleEndian.PutUint16(out[headerBytes+len(p.Payload):], sum)
	return out, nil
}

// UnmarshalPacket parses one packet from data, returning the packet and
// the number of bytes consumed.
func UnmarshalPacket(data []byte) (*Packet, int, error) {
	if len(data) < headerBytes+trailerBytes {
		return nil, 0, fmt.Errorf("core: packet truncated (%d bytes)", len(data))
	}
	if data[0] != packetMagic {
		return nil, 0, fmt.Errorf("core: bad packet magic %#x", data[0])
	}
	kind := PacketKind(data[1])
	switch kind {
	case KindKey, KindDelta, KindNack, KindKeyRequest:
	default:
		return nil, 0, fmt.Errorf("core: unknown packet kind %d", kind)
	}
	payloadLen := int(binary.LittleEndian.Uint16(data[8:]))
	total := headerBytes + payloadLen + trailerBytes
	if len(data) < total {
		return nil, 0, fmt.Errorf("core: packet truncated (%d of %d bytes)", len(data), total)
	}
	wantSum := binary.LittleEndian.Uint16(data[headerBytes+payloadLen:])
	if got := crc16(data[:headerBytes+payloadLen]); got != wantSum {
		return nil, 0, fmt.Errorf("core: packet CRC mismatch (%#x != %#x)", got, wantSum)
	}
	p := &Packet{
		Seq:        binary.LittleEndian.Uint32(data[2:]),
		Kind:       kind,
		NumSymbols: binary.LittleEndian.Uint16(data[6:]),
		Payload:    append([]byte(nil), data[headerBytes:headerBytes+payloadLen]...),
	}
	return p, total, nil
}
