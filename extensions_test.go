package csecg

import (
	"testing"
)

func TestQRSFacade(t *testing.T) {
	det, err := NewQRSDetector(360)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RecordByID("100")
	if err != nil {
		t.Fatal(err)
	}
	sig, err := rec.Synthesize(20)
	if err != nil {
		t.Fatal(err)
	}
	found := det.Detect(sig.MV[0])
	var ref []int
	for _, a := range sig.Ann {
		ref = append(ref, a.Sample)
	}
	st := MatchBeats(found, ref, 18)
	if st.F1() < 0.9 {
		t.Errorf("facade QRS F1 %.3f", st.F1())
	}
}

func TestAnalogFacade(t *testing.T) {
	fe, err := NewAnalogFrontEnd(AnalogConfig{M: 64, N: 128, Oversample: 4, WindowSeconds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if fe.ChipCount() != 512 {
		t.Errorf("ChipCount = %d", fe.ChipCount())
	}
}

func TestDCTBasisFacade(t *testing.T) {
	params := Params{Seed: 1, Basis: BasisDCT, M: MForCR(40, WindowSize)}
	if _, err := NewDecoder32(params); err != nil {
		t.Fatal(err)
	}
	if _, err := NewEncoder(params); err != nil {
		t.Fatal(err)
	}
}

func TestHolterFacade(t *testing.T) {
	det, err := NewQRSDetector(360)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := RecordByID("202") // atrial fibrillation
	if err != nil {
		t.Fatal(err)
	}
	sig, err := rec.Synthesize(180)
	if err != nil {
		t.Fatal(err)
	}
	var beats []HolterBeat
	for _, b := range det.DetectBeats(sig.MV[0]) {
		beats = append(beats, HolterBeat{Time: float64(b.Sample) / 360, Ventricular: b.Ventricular})
	}
	rep, err := AnalyzeHolter(beats)
	if err != nil {
		t.Fatal(err)
	}
	if rep.MeanHR < 40 || rep.MeanHR > 120 {
		t.Errorf("MeanHR %v", rep.MeanHR)
	}
	if CompareHolterReports(rep, rep) != 0 {
		t.Error("self-comparison nonzero")
	}
	_, frac, err := DetectAF(beats)
	if err != nil {
		t.Fatal(err)
	}
	if frac < 0.6 {
		t.Errorf("AF fraction %v on an AF record", frac)
	}
	sp, err := AnalyzeSpectralHRV(beats)
	if err != nil {
		t.Fatal(err)
	}
	if sp.LFPower <= 0 || sp.HFPower <= 0 {
		t.Errorf("spectral powers %v/%v", sp.LFPower, sp.HFPower)
	}
}
