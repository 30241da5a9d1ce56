package experiments

import (
	"math"
	"strconv"
	"strings"
	"testing"
)

// fastOpt keeps experiment tests quick: one clean and one ectopy-rich
// record, 8 s each.
func fastOpt() Options {
	return Options{Records: []string{"100", "208"}, SecondsPerRecord: 8}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		Title:  "T",
		Note:   "n",
		Header: []string{"a", "bb"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
	}
	out := tab.Render()
	for _, want := range []string{"== T ==", "a", "bb", "333"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestAllRecords(t *testing.T) {
	if got := len(AllRecords()); got != 48 {
		t.Errorf("AllRecords returned %d", got)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if len(o.Records) == 0 || o.SecondsPerRecord <= 0 {
		t.Errorf("defaults not applied: %+v", o)
	}
}

func TestWindows256Errors(t *testing.T) {
	if _, err := windows256("bogus", 10, 512); err == nil {
		t.Error("unknown record accepted")
	}
	if _, err := windows256("100", 0.5, 512); err == nil {
		t.Error("sub-window duration accepted")
	}
}

func TestFig2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	opt := fastOpt()
	res, err := Fig2(opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 7 {
		t.Fatalf("expected 7 CR points, got %d", len(res.Points))
	}
	for i, p := range res.Points {
		// The paper's claim: no meaningful difference between sparse
		// binary and Gaussian sensing.
		if math.Abs(p.SparseSNR-p.GaussSNR) > 3 {
			t.Errorf("CR %.0f: sparse %.2f dB vs Gaussian %.2f dB differ too much", p.CR, p.SparseSNR, p.GaussSNR)
		}
		// SNR decreases with CR.
		if i > 0 && p.SparseSNR > res.Points[i-1].SparseSNR+1.5 {
			t.Errorf("sparse SNR not decreasing: %.2f -> %.2f at CR %.0f", res.Points[i-1].SparseSNR, p.SparseSNR, p.CR)
		}
	}
	if res.Points[0].SparseSNR < 15 {
		t.Errorf("CR=50 SNR %.2f dB too low (paper ≈22 dB)", res.Points[0].SparseSNR)
	}
	if tab := res.Table(); len(tab.Rows) != len(res.Points) {
		t.Error("table rows mismatch")
	}
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	res, err := Fig6(fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 7 {
		t.Fatalf("expected 7 CR points, got %d", len(res.Points))
	}
	for i, p := range res.Points {
		// Fig. 6's claim: 32-bit ≡ 64-bit.
		if math.Abs(p.PRD32-p.PRD64) > 1+0.15*p.PRD64 {
			t.Errorf("CR %.0f: PRD32 %.2f vs PRD64 %.2f diverge", p.CR, p.PRD32, p.PRD64)
		}
		// PRD grows with CR overall.
		if i >= 2 && p.PRD64 < res.Points[i-2].PRD64-1 {
			t.Errorf("PRD not growing with CR at %.0f", p.CR)
		}
	}
	if tab := res.Table(); len(tab.Rows) != len(res.Points) {
		t.Error("table rows mismatch")
	}
}

func TestFig7Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	res, err := Fig7(fastOpt())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("expected 5 CR points, got %d", len(res.Points))
	}
	for _, p := range res.Points {
		if !p.Deadline {
			t.Errorf("CR %.0f misses the 1 s budget (%.2f s)", p.CR, p.MeanTime.Seconds())
		}
		if p.MeanIterations < 300 || p.MeanIterations > 2000 {
			t.Errorf("CR %.0f: %.0f mean iterations outside the plausible band", p.CR, p.MeanIterations)
		}
	}
	// Iterations grow with CR (harder problems at fewer measurements).
	if res.Points[len(res.Points)-1].MeanIterations <= res.Points[0].MeanIterations {
		t.Error("iterations do not grow with CR")
	}
}

func TestEncoderSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	res, err := Encoder(Options{Records: []string{"100"}, SecondsPerRecord: 8})
	if err != nil {
		t.Fatal(err)
	}
	var at12 *EncoderRow
	for i := range res.Rows {
		if res.Rows[i].D == 12 {
			at12 = &res.Rows[i]
		}
	}
	if at12 == nil {
		t.Fatal("d=12 missing from sweep")
	}
	// Paper: 82 ms at d=12.
	if ms := at12.Latency.Seconds() * 1000; ms < 70 || ms > 95 {
		t.Errorf("d=12 latency %.1f ms, want ≈82", ms)
	}
	// Latency monotone in d.
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Latency <= res.Rows[i-1].Latency {
			t.Error("latency not monotone in d")
		}
	}
}

func TestMemoryAndSpeedup(t *testing.T) {
	mem, err := Memory()
	if err != nil {
		t.Fatal(err)
	}
	if ram := mem.Mem.RAMTotal(); ram < 6000 || ram > 7200 {
		t.Errorf("RAM %d B, want ≈6.5 kB", ram)
	}
	sp, err := Speedup()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sp.Speedup-2.43) > 0.01 {
		t.Errorf("speedup %.3f, want 2.43", sp.Speedup)
	}
	if sp.VFPBudget < 700 || sp.VFPBudget > 950 || sp.NEONBudget < 1800 || sp.NEONBudget > 2300 {
		t.Errorf("budgets %d/%d, want ≈800/2000", sp.VFPBudget, sp.NEONBudget)
	}
}

// TestMemoryTableFlashRowsSum checks that the printed flash components
// add up to the printed flash total, so no ledger line is left out of
// the table.
func TestMemoryTableFlashRowsSum(t *testing.T) {
	mem, err := Memory()
	if err != nil {
		t.Fatal(err)
	}
	kb := func(cell string) float64 {
		v, err := strconv.ParseFloat(strings.TrimSuffix(cell, " kB"), 64)
		if err != nil {
			t.Fatalf("cell %q: %v", cell, err)
		}
		return v
	}
	var sum, total float64
	parts := 0
	for _, row := range mem.Table().Rows {
		switch {
		case strings.HasPrefix(row[0], "flash: "):
			sum += kb(row[1])
			parts++
		case row[0] == "flash total":
			total = kb(row[1])
		}
	}
	if want := float64(mem.Mem.FlashTotal()) / 1024; math.Abs(total-want) > 0.005 {
		t.Errorf("flash total row %.2f kB, FlashTotal %.3f kB", total, want)
	}
	// Each printed row rounds to 0.01 kB.
	if math.Abs(sum-total) > 0.005*float64(parts+1) {
		t.Errorf("flash rows sum to %.2f kB, total row says %.2f kB", sum, total)
	}
}

func TestCPUAndLifetime(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	cpu, err := CPU(Options{Records: []string{"100"}, SecondsPerRecord: 10})
	if err != nil {
		t.Fatal(err)
	}
	if cpu.MoteCPU >= 0.05 {
		t.Errorf("mote CPU %.3f, want < 5%%", cpu.MoteCPU)
	}
	if cpu.CoordinatorCPU <= 0.05 || cpu.CoordinatorCPU >= 0.35 {
		t.Errorf("coordinator CPU %.3f, want ≈0.18", cpu.CoordinatorCPU)
	}
	lt, err := Lifetime(Options{Records: []string{"100"}, SecondsPerRecord: 10})
	if err != nil {
		t.Fatal(err)
	}
	var at50 *LifetimeRow
	for i := range lt.Rows {
		if lt.Rows[i].CR == 50 {
			at50 = &lt.Rows[i]
		}
	}
	if at50 == nil {
		t.Fatal("CR=50 missing")
	}
	if at50.Extension < 0.08 || at50.Extension > 0.18 {
		t.Errorf("CR=50 lifetime extension %.3f, paper 0.129", at50.Extension)
	}
	// Extension grows with CR.
	for i := 1; i < len(lt.Rows); i++ {
		if lt.Rows[i].Extension <= lt.Rows[i-1].Extension {
			t.Error("extension not monotone in CR")
		}
	}
}

func TestConvergenceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	res, err := Convergence(Options{Records: []string{"100"}, SecondsPerRecord: 8})
	if err != nil {
		t.Fatal(err)
	}
	// FISTA gap must shrink much faster: at k=100 the ISTA/FISTA gap
	// ratio should exceed 2.
	for i, k := range res.Checkpoints {
		if k == 100 {
			if res.FISTAGap[i] <= 0 {
				break // already converged: even stronger
			}
			if res.ISTAGap[i]/res.FISTAGap[i] < 2 {
				t.Errorf("at k=100 ISTA/FISTA gap ratio %.2f, want > 2", res.ISTAGap[i]/res.FISTAGap[i])
			}
		}
	}
	// ISTA objective never below FISTA's floor trajectory at the end.
	last := len(res.Checkpoints) - 1
	if res.ISTAGap[last] < 0 {
		t.Error("negative ISTA gap (F* wrong)")
	}
}

func TestDiagnosticShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	res, err := Diagnostic(Options{Records: []string{"106"}, SecondsPerRecord: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("expected 4 CR rows, got %d", len(res.Rows))
	}
	// At moderate CR the reconstruction's F1 must match the original's.
	low := res.Rows[0]
	if low.Reconstructed.F1() < low.Original.F1()-0.05 {
		t.Errorf("CR %.0f: recon F1 %.3f well below original %.3f",
			low.CR, low.Reconstructed.F1(), low.Original.F1())
	}
	// Quality degrades monotonically-ish: the highest CR must not beat
	// the lowest.
	hi := res.Rows[len(res.Rows)-1]
	if hi.Reconstructed.F1() > low.Reconstructed.F1()+0.02 {
		t.Errorf("F1 improved from CR %.0f (%.3f) to CR %.0f (%.3f)",
			low.CR, low.Reconstructed.F1(), hi.CR, hi.Reconstructed.F1())
	}
	if tab := res.Table(); len(tab.Rows) != 4 {
		t.Error("table rows mismatch")
	}
}

func TestBasisAblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	res, err := BasisAblation(Options{Records: []string{"100", "208"}, SecondsPerRecord: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("expected 2 rows, got %d", len(res.Rows))
	}
	wav, dctRow := res.Rows[0], res.Rows[1]
	if wav.Name != "wavelet" || dctRow.Name != "DCT" {
		t.Fatalf("unexpected row order: %s, %s", wav.Name, dctRow.Name)
	}
	if dctRow.MACsPerApply <= 10*wav.MACsPerApply {
		t.Errorf("DCT MACs %d not ≫ wavelet %d", dctRow.MACsPerApply, wav.MACsPerApply)
	}
	if dctRow.RealTimeBudget >= wav.RealTimeBudget {
		t.Error("DCT budget not below wavelet budget")
	}
	if wav.MeanPRDN >= dctRow.MeanPRDN {
		t.Errorf("wavelet PRDN %.2f not better than DCT %.2f", wav.MeanPRDN, dctRow.MeanPRDN)
	}
}

func TestTableCSV(t *testing.T) {
	tab := &Table{
		Title:  "T",
		Note:   "n",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"1,x", "2"}},
	}
	out := tab.CSV()
	for _, want := range []string{"# T\n", "# n\n", "a,b\n", "\"1,x\",2\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("CSV missing %q:\n%s", want, out)
		}
	}
}

func TestResilienceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	res, err := Resilience(Options{Records: []string{"100"}, SecondsPerRecord: 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Fatalf("expected 9 rows, got %d", len(res.Rows))
	}
	byKey := map[int]map[float64]ResilienceRow{}
	for _, row := range res.Rows {
		if byKey[row.KeyInterval] == nil {
			byKey[row.KeyInterval] = map[float64]ResilienceRow{}
		}
		byKey[row.KeyInterval][row.LossPct] = row
	}
	for key, rows := range byKey {
		if c := rows[0].Coverage; c != 1 {
			t.Errorf("interval %d: lossless coverage %v, want 1", key, c)
		}
		if rows[15].Coverage > rows[0].Coverage {
			t.Errorf("interval %d: coverage improved under loss", key)
		}
	}
	// Short intervals must cover more under heavy loss than long ones.
	if byKey[8][15].Coverage <= byKey[64][15].Coverage {
		t.Errorf("interval 8 coverage %.2f not above interval 64 %.2f at 15%% loss",
			byKey[8][15].Coverage, byKey[64][15].Coverage)
	}
	// Long intervals must compress better.
	if byKey[64][0].WireCR <= byKey[8][0].WireCR {
		t.Errorf("interval 64 CR %.1f not above interval 8 %.1f", byKey[64][0].WireCR, byKey[8][0].WireCR)
	}
}

func TestTransportShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	res, err := Transport(Options{Records: []string{"100"}, SecondsPerRecord: 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 {
		t.Fatalf("expected 6 rows, got %d", len(res.Rows))
	}
	for i := 0; i < len(res.Rows); i += 2 {
		base, nack := res.Rows[i], res.Rows[i+1]
		if base.Mode != "wait-for-key" || nack.Mode != "nack" {
			t.Fatalf("row pair %d modes (%s, %s)", i, base.Mode, nack.Mode)
		}
		if nack.Coverage <= base.Coverage {
			t.Errorf("loss %.1f%%: NACK coverage %.2f not above baseline %.2f",
				base.MeanLossPct, nack.Coverage, base.Coverage)
		}
		if nack.Retransmits == 0 {
			t.Errorf("loss %.1f%%: no retransmits served", base.MeanLossPct)
		}
		if base.Retransmits != 0 {
			t.Errorf("baseline served %d retransmits without a control channel", base.Retransmits)
		}
		if nack.AirtimeMs <= base.AirtimeMs {
			t.Errorf("loss %.1f%%: retransmission airtime not accounted", base.MeanLossPct)
		}
	}
	table := res.Table()
	if len(table.Rows) != 6 || len(table.Header) != len(table.Rows[0]) {
		t.Errorf("table shape: %d rows, %d header cols", len(table.Rows), len(table.Header))
	}
}

func TestHolterReportShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	res, err := HolterReport(Options{Records: []string{"106"}, SecondsPerRecord: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("expected 4 rows, got %d", len(res.Rows))
	}
	// Report-level fidelity at the paper's operating point (CR 50) must
	// be essentially exact; the highest CR must be clearly worse.
	var at50, at85 float64 = -1, -1
	for _, row := range res.Rows {
		if row.CR == 50 {
			at50 = row.WorstRelErr
		}
		if row.CR == 85 {
			at85 = row.WorstRelErr
		}
	}
	if at50 < 0 || at50 > 0.05 {
		t.Errorf("CR 50 report error %.3f, want < 0.05", at50)
	}
	if at85 < at50*2 {
		t.Errorf("CR 85 error %.3f not clearly worse than CR 50 %.3f", at85, at50)
	}
}

func TestWindows256RejectsZeroN(t *testing.T) {
	if _, err := windows256("100", 10, 0); err == nil {
		t.Error("zero window length accepted (would loop forever)")
	}
}

func TestAnalogShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	res, err := Analog(Options{Records: []string{"100"}, SecondsPerRecord: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("expected 4 rows, got %d", len(res.Rows))
	}
	digital, ideal, degraded, calibrated := res.Rows[0], res.Rows[1], res.Rows[2], res.Rows[3]
	if math.Abs(digital.MeanSNR-ideal.MeanSNR) > 4 {
		t.Errorf("ideal analog %.1f dB far from digital %.1f dB", ideal.MeanSNR, digital.MeanSNR)
	}
	if degraded.MeanSNR >= ideal.MeanSNR-3 {
		t.Errorf("degraded front end (%.1f dB) not clearly below ideal (%.1f dB)", degraded.MeanSNR, ideal.MeanSNR)
	}
	if calibrated.MeanSNR <= degraded.MeanSNR+3 {
		t.Errorf("calibration (%.1f dB) did not recover the degraded front end (%.1f dB)", calibrated.MeanSNR, degraded.MeanSNR)
	}
}

func TestBaselineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	res, err := Baseline(Options{Records: []string{"100", "208"}, SecondsPerRecord: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("expected 4 rows, got %d", len(res.Rows))
	}
	// At each budget: DWT thresholding beats CS on PRDN; CS uses less
	// working RAM.
	for i := 0; i < len(res.Rows); i += 2 {
		cs, dwt := res.Rows[i], res.Rows[i+1]
		if dwt.MeanPRDN >= cs.MeanPRDN {
			t.Errorf("budget %.0f: DWT PRDN %.2f not better than CS %.2f", cs.BudgetCR, dwt.MeanPRDN, cs.MeanPRDN)
		}
		if cs.EncoderRAM >= dwt.EncoderRAM {
			t.Errorf("budget %.0f: CS RAM %d not below DWT %d", cs.BudgetCR, cs.EncoderRAM, dwt.EncoderRAM)
		}
		if cs.EncoderCycles <= 0 || dwt.EncoderCycles <= 0 {
			t.Error("non-positive cycle estimates")
		}
	}
}

func TestAblations(t *testing.T) {
	if testing.Short() {
		t.Skip("long experiment")
	}
	wa, err := WaveletAblation(Options{Records: []string{"100", "208"}, SecondsPerRecord: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(wa.Rows) < 4 {
		t.Error("wavelet ablation too small")
	}
	// Haar must not beat db4 at equal depth (smoothness matters).
	var haar, db4 float64
	for _, r := range wa.Rows {
		if r.Order == 1 && r.Levels == 5 {
			haar = r.MeanPRDN
		}
		if r.Order == 4 && r.Levels == 5 {
			db4 = r.MeanPRDN
		}
	}
	if haar < db4-0.5 {
		t.Errorf("Haar (%.2f) materially beats db4 (%.2f), unexpected", haar, db4)
	}

	sa, err := SolverAblation(Options{Records: []string{"100"}, SecondsPerRecord: 8})
	if err != nil {
		t.Fatal(err)
	}
	var fista, ista float64
	for _, r := range sa.Rows {
		if strings.HasPrefix(r.Name, "FISTA") {
			fista = r.MeanPRDN
		}
		if r.Name == "ISTA" {
			ista = r.MeanPRDN
		}
	}
	if fista >= ista {
		t.Errorf("FISTA PRDN %.2f not better than ISTA %.2f at equal budget", fista, ista)
	}

	ra, err := RedundancyAblation(Options{Records: []string{"100"}, SecondsPerRecord: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(ra.Rows) != 2 {
		t.Fatal("redundancy ablation rows")
	}
	if ra.Rows[0].WireCR <= ra.Rows[1].WireCR {
		t.Errorf("Δ+Huffman CR %.1f not above raw-measurement CR %.1f", ra.Rows[0].WireCR, ra.Rows[1].WireCR)
	}

	sh, err := ShiftAblation(Options{Records: []string{"100", "208"}, SecondsPerRecord: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(sh.Rows) != 7 {
		t.Fatalf("shift ablation rows %d", len(sh.Rows))
	}
	// Wire CR must grow with shift; quality must degrade at the largest
	// shifts.
	for i := 1; i < len(sh.Rows); i++ {
		if sh.Rows[i].WireCR <= sh.Rows[i-1].WireCR {
			t.Errorf("wire CR not increasing at shift %d", sh.Rows[i].Shift)
		}
	}
	if sh.Rows[len(sh.Rows)-1].MeanPRDN <= sh.Rows[2].MeanPRDN+1 {
		t.Error("largest shift did not degrade quality")
	}

	ha, err := HuffmanAblation()
	if err != nil {
		t.Fatal(err)
	}
	limited, unlimited := ha.Rows[0], ha.Rows[1]
	if limited.MaxLen > 16 {
		t.Error("limited codebook exceeds 16 bits")
	}
	if limited.AvgBits > unlimited.AvgBits+0.05 {
		t.Errorf("length limit costs %.3f bits/symbol, should be ≈0", limited.AvgBits-unlimited.AvgBits)
	}
}

func TestChaosShape(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix is exercised in internal/chaos under -short")
	}
	r, err := Chaos(true, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) < 7 {
		t.Fatalf("chaos matrix has %d scenarios, want ≥7", len(r.Rows))
	}
	if fails := r.Failures(); len(fails) != 0 {
		t.Fatalf("survival contract violated: %v", fails)
	}
	tab := r.Table()
	if len(tab.Rows) != len(r.Rows) {
		t.Fatalf("table rows %d != scenarios %d", len(tab.Rows), len(r.Rows))
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("ragged table row: %v", row)
		}
		if row[len(row)-1] != "survived" {
			t.Fatalf("scenario %s verdict %q", row[0], row[len(row)-1])
		}
	}
}

// TestTracesReportDroppedTrees pins the retention-cap guard behind
// csecg-bench -trace/-spans: a capture that outgrows its per-session
// cap must report the loss rather than yield a silently incomplete
// trace.
func TestTracesReportDroppedTrees(t *testing.T) {
	opt := Options{Records: []string{"100"}, SecondsPerRecord: 4} // CPU streams 8 s: 4 windows
	for _, tc := range []struct {
		retain, kept int
		dropped      bool
	}{{retain: 2, kept: 2, dropped: true}, {retain: 8, kept: 4}} {
		opt.Trace = &Traces{retain: tc.retain}
		if _, err := CPU(opt); err != nil {
			t.Fatal(err)
		}
		if got := len(opt.Trace.Records()); got != tc.kept {
			t.Errorf("cap %d: %d trees kept, want %d", tc.retain, got, tc.kept)
		}
		if err := opt.Trace.Err(); (err != nil) != tc.dropped {
			t.Errorf("cap %d: Err() = %v, want dropped=%v", tc.retain, err, tc.dropped)
		}
	}
}
