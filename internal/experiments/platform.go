package experiments

import (
	"fmt"
	"time"

	"csecg"
	"csecg/internal/coordinator"
	"csecg/internal/core"
	"csecg/internal/metrics"
	"csecg/internal/mote"
)

// EncoderRow is one column-weight operating point of the d trade-off
// study of Section IV-A.2.
type EncoderRow struct {
	D           int
	Latency     time.Duration
	MoteCPU     float64
	RecoverySNR float64
}

// EncoderResult covers the measurement-latency claim (82 ms at d = 12)
// and the d sweep that justified the choice.
type EncoderResult struct {
	Rows []EncoderRow
}

// Encoder sweeps the sensing-matrix column weight at CR = 50.
func Encoder(opt Options) (*EncoderResult, error) {
	opt = opt.withDefaults()
	res := &EncoderResult{}
	for _, d := range []int{2, 4, 8, 12, 16, 24} {
		p := core.Params{Seed: 0xEC, D: d, M: metrics.MForCR(50, core.WindowSize)}
		m, err := mote.New(p)
		if err != nil {
			return nil, err
		}
		rep, err := csecg.RunStream(csecg.StreamConfig{
			RecordID: opt.Records[0],
			Seconds:  opt.SecondsPerRecord,
			Params:   p,
			Mode:     coordinator.NEON,
			Metrics:  opt.Metrics,
			Spans:    opt.Trace.Session(fmt.Sprintf("encoder d=%d", d)),
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, EncoderRow{
			D:           d,
			Latency:     m.MeasurementLatency(),
			MoteCPU:     rep.MoteCPU,
			RecoverySNR: metrics.SNR(rep.MeanPRDN),
		})
	}
	return res, nil
}

// Table renders the result.
func (r *EncoderResult) Table() *Table {
	t := &Table{
		Title:  "§IV-A.2 — Encoder d trade-off: measurement latency vs recovery quality (CR=50)",
		Note:   "paper: d=12 is the sweet spot, CS-sampling a 2 s vector in 82 ms",
		Header: []string{"d", "measure latency (ms)", "mote CPU (%)", "recovery SNR (dB)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.D),
			f1(float64(row.Latency.Microseconds()) / 1000),
			f2(row.MoteCPU * 100),
			f2(row.RecoverySNR),
		})
	}
	return t
}

// MemoryResult reports the mote footprint accounting of Section IV-A.2.
type MemoryResult struct {
	Mem mote.Memory
}

// Memory computes the footprint at the default operating point.
func Memory() (*MemoryResult, error) {
	m, err := mote.New(core.Params{Seed: 1, M: metrics.MForCR(50, core.WindowSize)})
	if err != nil {
		return nil, err
	}
	if err := m.CheckFits(); err != nil {
		return nil, err
	}
	return &MemoryResult{Mem: m.MemoryFootprint()}, nil
}

// Table renders the result.
func (r *MemoryResult) Table() *Table {
	mem := r.Mem
	kb := func(b int) string { return fmt.Sprintf("%.2f kB", float64(b)/1024) }
	return &Table{
		Title: "§IV-A.2 — Encoder memory footprint (MSP430F1611: 10 kB RAM, 48 kB flash)",
		Note:  "paper: 6.5 kB RAM, 7.5 kB flash of which 1.5 kB Huffman codebook",
		Header: []string{
			"component", "bytes",
		},
		Rows: [][]string{
			{"RAM: sample double-buffer", kb(mem.SampleBuffers)},
			{"RAM: measurement state (y, y_prev)", kb(mem.MeasurementState)},
			{"RAM: symbol scratch", kb(mem.SymbolScratch)},
			{"RAM: packet buffer", kb(mem.PacketBuffer)},
			{"RAM: Bluetooth stack", kb(mem.BTStack)},
			{"RAM: stack + globals", kb(mem.StackMisc)},
			{"RAM total", kb(mem.RAMTotal())},
			{"flash: code", kb(mem.CodeFlash)},
			{"flash: CRC-16 table", kb(mem.CRCTableFlash)},
			{"flash: Huffman codebook", kb(mem.CodebookFlash)},
			{"flash total", kb(mem.FlashTotal())},
		},
	}
}

// SpeedupResult reports the VFP-vs-NEON study of Section V.
type SpeedupResult struct {
	VFPIterTime, NEONIterTime time.Duration
	Speedup                   float64
	VFPBudget, NEONBudget     int
}

// Speedup evaluates the decode-time model at CR = 50.
func Speedup() (*SpeedupResult, error) {
	p := core.Params{M: metrics.MForCR(50, core.WindowSize)}
	c := coordinator.DefaultCosts()
	return &SpeedupResult{
		VFPIterTime:  c.IterationTime(p, coordinator.VFP),
		NEONIterTime: c.IterationTime(p, coordinator.NEON),
		Speedup:      coordinator.Speedup(p),
		VFPBudget:    c.IterationBudget(p, coordinator.VFP),
		NEONBudget:   c.IterationBudget(p, coordinator.NEON),
	}, nil
}

// Table renders the result.
func (r *SpeedupResult) Table() *Table {
	return &Table{
		Title: "§V — Low-level optimization gain: VFP (scalar) vs NEON (vectorized) decoder",
		Note:  "paper: 2.43× faster at CR=50; iteration budget 800 → 2000 within the 1 s deadline",
		Header: []string{
			"build", "time/iteration (ms)", "iterations in 1 s budget",
		},
		Rows: [][]string{
			{"VFP (unoptimized)", f2(r.VFPIterTime.Seconds() * 1000), fmt.Sprintf("%d", r.VFPBudget)},
			{"NEON (optimized)", f2(r.NEONIterTime.Seconds() * 1000), fmt.Sprintf("%d", r.NEONBudget)},
			{"speedup", f2(r.Speedup) + "×", ""},
		},
	}
}

// CPUResult reports both platforms' CPU shares at the paper's CR = 50
// operating point.
type CPUResult struct {
	MoteCPU, CoordinatorCPU float64
	MeanDecode              time.Duration
	Report                  *csecg.StreamReport
}

// CPU runs a full session and extracts the CPU figures.
func CPU(opt Options) (*CPUResult, error) {
	opt = opt.withDefaults()
	rep, err := csecg.RunStream(csecg.StreamConfig{
		RecordID: opt.Records[0],
		Seconds:  opt.SecondsPerRecord * 2,
		Params:   core.Params{Seed: 0xC0, M: metrics.MForCR(50, core.WindowSize)},
		Mode:     coordinator.NEON,
		Metrics:  opt.Metrics,
		Spans:    opt.Trace.Session("cpu"),
	})
	if err != nil {
		return nil, err
	}
	return &CPUResult{
		MoteCPU:        rep.MoteCPU,
		CoordinatorCPU: rep.CoordinatorCPU,
		MeanDecode:     rep.MeanDecodeTime,
		Report:         rep,
	}, nil
}

// Table renders the result.
func (r *CPUResult) Table() *Table {
	return &Table{
		Title: "§V — Average CPU usage at CR=50",
		Note:  "paper: < 5% on the ShimmerTM node, 17.7% on the iPhone (< 30% overall)",
		Header: []string{
			"platform", "avg CPU (%)", "note",
		},
		Rows: [][]string{
			{"mote (MSP430 @ 8 MHz)", f2(r.MoteCPU * 100), "sense+compress+frame per 2 s window"},
			{"coordinator (Cortex-A8 @ 600 MHz)", f2(r.CoordinatorCPU * 100),
				fmt.Sprintf("mean decode %.2f s per 2 s packet", r.MeanDecode.Seconds())},
		},
	}
}

// LifetimeRow is one CR operating point of the energy study.
type LifetimeRow struct {
	CR                      float64
	WireCR                  float64
	LifetimeRaw, LifetimeCS time.Duration
	Extension               float64
}

// LifetimeResult reports the node-lifetime extension of Section V.
type LifetimeResult struct {
	Rows []LifetimeRow
}

// Lifetime sweeps CR and compares modeled lifetime against raw
// streaming.
func Lifetime(opt Options) (*LifetimeResult, error) {
	opt = opt.withDefaults()
	res := &LifetimeResult{}
	for _, cr := range []float64{30, 40, 50, 60, 70} {
		rep, err := csecg.RunStream(csecg.StreamConfig{
			RecordID: opt.Records[0],
			Seconds:  opt.SecondsPerRecord * 2,
			Params:   core.Params{Seed: 0x1F, M: metrics.MForCR(cr, core.WindowSize)},
			Mode:     coordinator.NEON,
			Metrics:  opt.Metrics,
			Spans:    opt.Trace.Session(fmt.Sprintf("lifetime CR=%.0f", cr)),
		})
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, LifetimeRow{
			CR:          cr,
			WireCR:      rep.WireCR,
			LifetimeRaw: rep.LifetimeRaw,
			LifetimeCS:  rep.LifetimeCS,
			Extension:   rep.Extension,
		})
	}
	return res, nil
}

// Table renders the result.
func (r *LifetimeResult) Table() *Table {
	t := &Table{
		Title:  "§V — Node lifetime extension vs streaming uncompressed",
		Note:   "paper: 12.9% at CR=50; Shimmer-class battery/current model",
		Header: []string{"CS CR (%)", "wire CR (%)", "raw lifetime (h)", "CS lifetime (h)", "extension (%)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			f1(row.CR), f1(row.WireCR),
			f1(row.LifetimeRaw.Hours()), f1(row.LifetimeCS.Hours()),
			f1(row.Extension * 100),
		})
	}
	return t
}
