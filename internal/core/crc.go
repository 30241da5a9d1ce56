package core

// CRC-16/CCITT-FALSE (polynomial 0x1021, init 0xFFFF) protects every
// frame on the wire. The mote computes it with the byte-indexed lookup
// table below — 256 uint16 entries, 512 bytes of flash (ledgered as
// FlashCRCTable in internal/mote/budget.go) — at one table lookup, one
// XOR and one shift per byte, all 16-bit integer operations the MSP430
// performs natively. Compared to the additive Fletcher-16 it replaces,
// the CRC detects all single- and double-bit errors, all odd-weight
// error patterns and every burst up to 16 bits — the damage profile of
// a fading Bluetooth channel.
const crcPoly = 0x1021

// crcTable is the byte-indexed CRC-16/CCITT lookup table (the flash
// image a firmware build generates offline).
var crcTable = makeCRCTable()

func makeCRCTable() [256]uint16 {
	var t [256]uint16
	for b := 0; b < 256; b++ {
		crc := uint16(b) << 8
		for bit := 0; bit < 8; bit++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ crcPoly
			} else {
				crc <<= 1
			}
		}
		t[b] = crc
	}
	return t
}

// crc16 computes the CRC-16/CCITT-FALSE checksum of data.
func crc16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, v := range data {
		crc = crc<<8 ^ crcTable[byte(crc>>8)^v]
	}
	return crc
}
