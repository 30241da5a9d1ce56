package experiments

import (
	"fmt"
	"time"

	"csecg/internal/coordinator"
	"csecg/internal/core"
	"csecg/internal/huffman"
	"csecg/internal/linalg"
	"csecg/internal/metrics"
	"csecg/internal/sensing"
	"csecg/internal/solver"
	"csecg/internal/wavelet"
)

// WaveletRow is one sparsifying-basis operating point.
type WaveletRow struct {
	Order, Levels int
	MeanPRDN      float64
}

// WaveletAblationResult sweeps the Daubechies order and decomposition
// depth of Ψ at CR = 50 (the paper fixes one orthonormal basis; this
// ablation shows the design space).
type WaveletAblationResult struct {
	Rows []WaveletRow
}

// WaveletAblation runs the sweep.
func WaveletAblation(opt Options) (*WaveletAblationResult, error) {
	opt = opt.withDefaults()
	res := &WaveletAblationResult{}
	cases := []struct{ order, levels int }{
		{1, 5}, {2, 5}, {4, 3}, {4, 5}, {6, 5}, {8, 4},
	}
	for _, c := range cases {
		p := core.Params{
			Seed: 0xAB, M: metrics.MForCR(50, core.WindowSize),
			WaveletOrder: c.order, WaveletLevels: c.levels,
		}
		prdn, _, err := pipelinePRD[float64](Options{Records: opt.Records[:2], SecondsPerRecord: opt.SecondsPerRecord}, p)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, WaveletRow{Order: c.order, Levels: c.levels, MeanPRDN: prdn})
	}
	return res, nil
}

// Table renders the result.
func (r *WaveletAblationResult) Table() *Table {
	t := &Table{
		Title:  "Ablation — sparsifying basis Ψ at CR=50",
		Note:   "Daubechies order / decomposition depth vs reconstruction quality",
		Header: []string{"wavelet", "levels", "mean PRDN (%)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("db%d", row.Order), fmt.Sprintf("%d", row.Levels), f2(row.MeanPRDN),
		})
	}
	return t
}

// SolverRow compares recovery algorithms on the same measurement set.
// MeanTime is measured host wall time, so Table leaves it out.
type SolverRow struct {
	Name     string
	MeanPRDN float64
	MeanTime time.Duration
}

// SolverAblationResult compares FISTA against ISTA (same iteration
// budget) and greedy OMP, the alternatives Section I cites.
type SolverAblationResult struct {
	Rows []SolverRow
}

// SolverAblation runs the comparison at CR = 50 on host wall time.
func SolverAblation(opt Options) (*SolverAblationResult, error) {
	opt = opt.withDefaults()
	const n = core.WindowSize
	m := metrics.MForCR(50, n)
	w, err := wavelet.New[float64](core.DefaultWaveletOrder, n, core.DefaultWaveletLevels)
	if err != nil {
		return nil, err
	}
	phi, err := sensing.NewSparseBinaryLCG(m, n, core.DefaultColumnWeight, 0x50)
	if err != nil {
		return nil, err
	}
	phiOp := sensing.Op[float64](phi)
	a := linalg.Compose(phiOp, w.SynthesisOp())
	lip := 2 * linalg.PowerIterOpNorm(a, 30)

	wins, err := windows256(opt.Records[0], opt.SecondsPerRecord, n)
	if err != nil {
		return nil, err
	}
	type algo struct {
		name string
		run  func(y []float64) ([]float64, error)
	}
	const budget = 1500
	algos := []algo{
		{"FISTA (continuation)", func(y []float64) ([]float64, error) {
			r, err := solver.FISTAContinuation(a, y, solver.Options[float64]{MaxIter: budget, Tol: 1e-5, Lipschitz: lip}, 6)
			if err != nil {
				return nil, err
			}
			return r.X, nil
		}},
		{"ISTA", func(y []float64) ([]float64, error) {
			r, err := solver.ISTA(a, y, solver.Options[float64]{MaxIter: budget, Tol: 1e-5, Lipschitz: lip})
			if err != nil {
				return nil, err
			}
			return r.X, nil
		}},
		{"TwIST", func(y []float64) ([]float64, error) {
			r, err := solver.TwIST(a, y, solver.TwISTOptions[float64]{
				Options: solver.Options[float64]{MaxIter: budget, Tol: 1e-5, Lipschitz: lip},
			})
			if err != nil {
				return nil, err
			}
			return r.X, nil
		}},
		{"OMP (64 atoms)", func(y []float64) ([]float64, error) {
			r, err := solver.OMP(a, y, 64, 1e-4)
			if err != nil {
				return nil, err
			}
			return r.X, nil
		}},
	}
	res := &SolverAblationResult{}
	for _, al := range algos {
		var sum float64
		var count int
		start := time.Now() //csecg:nondet intentional wall-clock timing of the solver
		for _, win := range wins {
			x := make([]float64, n)
			for i, v := range win {
				x[i] = float64(v - core.ADCBaseline)
			}
			y := make([]float64, m)
			phiOp.Apply(y, x)
			alpha, err := al.run(y)
			if err != nil {
				return nil, err
			}
			xhat := make([]float64, n)
			w.Inverse(xhat, alpha)
			orig := make([]float64, n)
			reco := make([]float64, n)
			for i := range win {
				orig[i] = float64(win[i])
				reco[i] = xhat[i] + core.ADCBaseline
			}
			prdn, err := metrics.PRDN(orig, reco)
			if err != nil {
				return nil, err
			}
			sum += prdn
			count++
		}
		res.Rows = append(res.Rows, SolverRow{
			Name:     al.name,
			MeanPRDN: sum / float64(count),
			MeanTime: time.Since(start) / time.Duration(count),
		})
	}
	return res, nil
}

// Table renders the result.
func (r *SolverAblationResult) Table() *Table {
	t := &Table{
		Title:  "Ablation — recovery algorithm at CR=50 (equal iteration budget for the convex solvers)",
		Note:   "the paper selects FISTA for its O(1/k²) rate",
		Header: []string{"algorithm", "mean PRDN (%)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.Name, f2(row.MeanPRDN)})
	}
	return t
}

// BasisRow is one sparsifying-transform operating point.
type BasisRow struct {
	Name           string
	MeanPRDN       float64
	MACsPerApply   int64
	RealTimeBudget int
}

// BasisAblationResult compares the paper's wavelet Ψ against an
// orthonormal DCT at CR = 50. On ECG the wavelet wins on both axes:
// markedly better sparsity (lower PRDN) and ~17× fewer MACs per
// iteration, which is the quantitative argument for the paper's basis
// choice.
type BasisAblationResult struct {
	Rows []BasisRow
}

// BasisAblation runs the comparison.
func BasisAblation(opt Options) (*BasisAblationResult, error) {
	opt = opt.withDefaults()
	res := &BasisAblationResult{}
	costs := coordinator.DefaultCosts()
	for _, b := range []core.Basis{core.BasisWavelet, core.BasisDCT} {
		p := core.Params{Seed: 0xBA, M: metrics.MForCR(50, core.WindowSize), Basis: b}
		prdn, _, err := pipelinePRD[float64](Options{Records: opt.Records[:2], SecondsPerRecord: opt.SecondsPerRecord}, p)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, BasisRow{
			Name:           b.String(),
			MeanPRDN:       prdn,
			MACsPerApply:   coordinator.MACsPerIteration(p),
			RealTimeBudget: costs.IterationBudget(p, coordinator.NEON),
		})
	}
	return res, nil
}

// Table renders the result.
func (r *BasisAblationResult) Table() *Table {
	t := &Table{
		Title:  "Ablation — sparsifying basis family at CR=50: wavelet vs DCT",
		Note:   "the wavelet wins on both quality and per-iteration cost",
		Header: []string{"basis", "mean PRDN (%)", "MACs/iteration", "NEON iters in 1 s"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			row.Name, f2(row.MeanPRDN),
			fmt.Sprintf("%d", row.MACsPerApply), fmt.Sprintf("%d", row.RealTimeBudget),
		})
	}
	return t
}

// RedundancyRow compares packet sizes with and without the difference
// stage.
type RedundancyRow struct {
	Mode       string
	WireCR     float64
	MeanPacket float64
}

// RedundancyAblationResult isolates the inter-packet redundancy-removal
// stage's contribution to the compression ratio.
type RedundancyAblationResult struct {
	Rows []RedundancyRow
}

// RedundancyAblation compares delta coding (key frame interval 64)
// against key-frame-only streaming (interval 1) at CR = 50.
func RedundancyAblation(opt Options) (*RedundancyAblationResult, error) {
	opt = opt.withDefaults()
	res := &RedundancyAblationResult{}
	for _, mode := range []struct {
		name     string
		interval int
	}{
		{"Δ + Huffman (interval 64)", 64},
		{"raw measurements only (interval 1)", 1},
	} {
		p := core.Params{Seed: 0x4D, M: metrics.MForCR(50, core.WindowSize), KeyFrameInterval: mode.interval}
		var rawBits, compBits, packets int
		for _, id := range opt.Records {
			enc, err := core.NewEncoder(p)
			if err != nil {
				return nil, err
			}
			wins, err := windows256(id, opt.SecondsPerRecord, enc.Params().N)
			if err != nil {
				return nil, err
			}
			for _, win := range wins {
				pkt, err := enc.EncodeWindow(win)
				if err != nil {
					return nil, err
				}
				rawBits += enc.RawWindowBits()
				compBits += pkt.WireSize() * 8
				packets++
			}
		}
		res.Rows = append(res.Rows, RedundancyRow{
			Mode:       mode.name,
			WireCR:     metrics.CR(rawBits, compBits),
			MeanPacket: float64(compBits) / 8 / float64(packets),
		})
	}
	return res, nil
}

// Table renders the result.
func (r *RedundancyAblationResult) Table() *Table {
	t := &Table{
		Title:  "Ablation — inter-packet redundancy removal at CS CR=50",
		Note:   "the Δ+Huffman stage is what lifts the wire CR above the CS stage's 50%",
		Header: []string{"encoder mode", "wire CR (%)", "mean packet (B)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{row.Mode, f1(row.WireCR), f1(row.MeanPacket)})
	}
	return t
}

// ShiftRow is one measurement-quantization operating point.
type ShiftRow struct {
	Shift    int
	WireCR   float64
	MeanPRDN float64
}

// ShiftAblationResult sweeps the encoder's measurement LSB drop: more
// shift shrinks the difference symbols (better entropy coding) but adds
// quantization noise to the measurements. The default of 3 bits sits
// where the wire CR has most of its gain and the recovery error is
// still dominated by the CS undersampling, not the quantization.
type ShiftAblationResult struct {
	Rows []ShiftRow
}

// ShiftAblation runs the sweep at CR = 50.
func ShiftAblation(opt Options) (*ShiftAblationResult, error) {
	opt = opt.withDefaults()
	res := &ShiftAblationResult{}
	for _, shift := range []int{-1, 1, 2, 3, 4, 5, 6} { // -1 encodes "0"
		p := core.Params{
			Seed: 0x5F, M: metrics.MForCR(50, core.WindowSize),
			MeasurementShift: shift,
		}
		prdn, wire, err := pipelinePRD[float64](Options{Records: opt.Records[:2], SecondsPerRecord: opt.SecondsPerRecord}, p)
		if err != nil {
			return nil, err
		}
		s := shift
		if s < 0 {
			s = 0
		}
		res.Rows = append(res.Rows, ShiftRow{Shift: s, WireCR: wire, MeanPRDN: prdn})
	}
	return res, nil
}

// Table renders the result.
func (r *ShiftAblationResult) Table() *Table {
	t := &Table{
		Title:  "Ablation — measurement LSB drop at CS CR=50",
		Note:   "more shift compresses the difference symbols, at the cost of measurement quantization noise",
		Header: []string{"shift (bits)", "wire CR (%)", "mean PRDN (%)"},
	}
	for _, row := range r.Rows {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", row.Shift), f1(row.WireCR), f2(row.MeanPRDN),
		})
	}
	return t
}

// HuffmanRow compares codebook variants.
type HuffmanRow struct {
	Name        string
	MaxLen      int
	AvgBits     float64
	StorageByte int
}

// HuffmanAblationResult quantifies the cost of the 16-bit length limit
// the mote's storage format imposes.
type HuffmanAblationResult struct {
	Rows []HuffmanRow
}

// HuffmanAblation trains limited and effectively-unlimited codebooks on
// the model histogram and compares expected rates.
func HuffmanAblation() (*HuffmanAblationResult, error) {
	freq := core.DiffHistogramModel(20)
	res := &HuffmanAblationResult{}
	limited, err := huffman.Train(freq)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, HuffmanRow{
		Name: "length-limited (16-bit, mote format)", MaxLen: limited.MaxLen(),
		AvgBits: limited.ExpectedBits(freq), StorageByte: len(limited.Serialize()),
	})
	// Unlimited Huffman for comparison: package-merge with a depth cap
	// beyond any achievable depth is exactly Huffman-optimal.
	lengths, err := huffman.LengthLimitedCodeLengths(freq, 57)
	if err != nil {
		return nil, err
	}
	var avg float64
	var total int64
	for s, f := range freq {
		total += int64(f)
		avg += float64(f) * float64(lengths[s])
	}
	avg /= float64(total)
	maxLen := 0
	for _, l := range lengths {
		if l > maxLen {
			maxLen = l
		}
	}
	res.Rows = append(res.Rows, HuffmanRow{
		Name: "unconstrained Huffman", MaxLen: maxLen, AvgBits: avg,
		StorageByte: -1,
	})
	return res, nil
}

// Table renders the result.
func (r *HuffmanAblationResult) Table() *Table {
	t := &Table{
		Title:  "Ablation — 16-bit length-limited vs unconstrained Huffman on the difference model",
		Note:   "the hard limit costs almost nothing in rate and fixes the mote's 1.5 kB storage format",
		Header: []string{"codebook", "max codeword (bits)", "avg bits/symbol", "storage (B)"},
	}
	for _, row := range r.Rows {
		storage := "n/a"
		if row.StorageByte >= 0 {
			storage = fmt.Sprintf("%d", row.StorageByte)
		}
		t.Rows = append(t.Rows, []string{
			row.Name, fmt.Sprintf("%d", row.MaxLen), f2(row.AvgBits), storage,
		})
	}
	return t
}
