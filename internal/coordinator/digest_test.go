package coordinator

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"csecg/internal/core"
	"csecg/internal/ecg"
	"csecg/internal/metrics"
)

// decodeDigest and decodeDigestIterations pin what the decoders
// compute. A change that moves either one changes decodes: it must
// update both constants and say why.
const (
	decodeDigest           = 0x3a93448a82152511
	decodeDigestIterations = 382615
)

// TestDecodeDigest decodes 20 windows of six records at CR 50 and 80
// with fresh VFP, NEON and float64 decoders, and hashes (FNV-64a, one
// little-endian 64-bit word per value) each window's MV bits,
// iterations, residual norm and, for VFP and NEON, ModeledTime. The
// order is CR, record, window, then decoder. The synthetic records
// cover normal sinus rhythm (100, 101) and frequent PVCs (119, 200,
// 208, 233).
func TestDecodeDigest(t *testing.T) {
	if raceEnabled {
		t.Skip("too slow under the race detector; the decoded bits do not depend on it")
	}
	const windows = 20
	h := fnv.New64a()
	iterations := 0
	for _, cr := range []float64{50, 80} {
		p := core.Params{Seed: 1, M: metrics.MForCR(cr, core.WindowSize)}
		for _, id := range []string{"100", "101", "119", "200", "208", "233"} {
			pkts := encodeRecord(t, p, id, windows)
			vfp, err := NewRealTimeDecoder(p, VFP)
			if err != nil {
				t.Fatal(err)
			}
			neon, err := NewRealTimeDecoder(p, NEON)
			if err != nil {
				t.Fatal(err)
			}
			f64, err := core.NewDecoder[float64](p)
			if err != nil {
				t.Fatal(err)
			}
			for _, pkt := range pkts {
				for _, d := range []*RealTimeDecoder{vfp, neon} {
					r, err := d.Decode(pkt)
					if err != nil {
						t.Fatalf("CR %v record %s window %d: %v", cr, id, pkt.Seq, err)
					}
					for _, v := range r.MV {
						putWord(h, uint64(math.Float32bits(v)))
					}
					putWord(h, uint64(r.Iterations))
					putWord(h, math.Float64bits(r.ResidualNorm))
					putWord(h, uint64(r.ModeledTime))
					iterations += r.Iterations
				}
				r, err := f64.DecodePacket(pkt)
				if err != nil {
					t.Fatalf("CR %v record %s window %d (float64): %v", cr, id, pkt.Seq, err)
				}
				for _, v := range r.MV {
					putWord(h, math.Float64bits(v))
				}
				putWord(h, uint64(r.Iterations))
				putWord(h, math.Float64bits(r.ResidualNorm))
				iterations += r.Iterations
			}
		}
	}
	if got := h.Sum64(); got != decodeDigest || iterations != decodeDigestIterations {
		t.Errorf("decode digest %016x over %d iterations, want %016x over %d", got, iterations, uint64(decodeDigest), decodeDigestIterations)
	}
}

// encodeRecord encodes the first windows of a record into packets that
// stay valid after the encoder moves on.
func encodeRecord(t *testing.T, p core.Params, id string, windows int) []*core.Packet {
	t.Helper()
	rec, err := ecg.RecordByID(id)
	if err != nil {
		t.Fatal(err)
	}
	samples, err := rec.Channel256(float64(windows*core.WindowSize)/core.FsMote, 0)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := core.NewEncoder(p)
	if err != nil {
		t.Fatal(err)
	}
	pkts := make([]*core.Packet, windows)
	for w := range pkts {
		pkt, err := enc.EncodeWindow(samples[w*core.WindowSize : (w+1)*core.WindowSize])
		if err != nil {
			t.Fatal(err)
		}
		// EncodeWindow reuses its packet between calls.
		cp := *pkt
		cp.Payload = append([]byte(nil), pkt.Payload...)
		pkts[w] = &cp
	}
	return pkts
}

func putWord(h hash.Hash64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}
