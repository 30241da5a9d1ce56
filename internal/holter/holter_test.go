package holter

import (
	"math"
	"testing"

	"csecg/internal/ecg"
	"csecg/internal/qrs"
)

// syntheticBeats builds a regular 75-bpm train with optional PVCs.
func syntheticBeats(n int, rr float64, pvcEvery int) []BeatInput {
	out := make([]BeatInput, n)
	t := 0.0
	for i := range out {
		vent := pvcEvery > 0 && i%pvcEvery == pvcEvery-1
		out[i] = BeatInput{Time: t, Ventricular: vent}
		t += rr
	}
	return out
}

func TestAnalyzeRegularRhythm(t *testing.T) {
	rep, err := Analyze(syntheticBeats(100, 0.8, 0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.MeanHR-75) > 0.01 {
		t.Errorf("MeanHR = %v, want 75", rep.MeanHR)
	}
	if rep.SDNN > 1e-6 || rep.RMSSD > 1e-6 {
		t.Errorf("perfectly regular rhythm has SDNN %v RMSSD %v", rep.SDNN, rep.RMSSD)
	}
	if rep.PNN50 != 0 {
		t.Errorf("PNN50 = %v", rep.PNN50)
	}
	if rep.VentricularBeats != 0 || len(rep.Pauses) != 0 {
		t.Error("regular rhythm reported ectopy or pauses")
	}
	if math.Abs(rep.DurationSec-99*0.8) > 1e-9 {
		t.Errorf("duration %v", rep.DurationSec)
	}
}

func TestAnalyzeKnownVariability(t *testing.T) {
	// Alternating RR 0.7/0.9: mean 0.8, SDNN 100 ms, every successive
	// difference 200 ms ⇒ RMSSD 200, pNN50 = 1.
	beats := make([]BeatInput, 101)
	t0 := 0.0
	for i := range beats {
		beats[i] = BeatInput{Time: t0}
		if i%2 == 0 {
			t0 += 0.7
		} else {
			t0 += 0.9
		}
	}
	rep, err := Analyze(beats)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.SDNN-100) > 1 {
		t.Errorf("SDNN = %v, want 100", rep.SDNN)
	}
	if math.Abs(rep.RMSSD-200) > 1 {
		t.Errorf("RMSSD = %v, want 200", rep.RMSSD)
	}
	if rep.PNN50 != 1 {
		t.Errorf("PNN50 = %v, want 1", rep.PNN50)
	}
	if math.Abs(rep.MinHR-60/0.9) > 0.1 || math.Abs(rep.MaxHR-60/0.7) > 0.1 {
		t.Errorf("HR range [%v, %v]", rep.MinHR, rep.MaxHR)
	}
}

func TestVentricularBurdenAndNNExclusion(t *testing.T) {
	beats := syntheticBeats(120, 1.0, 10) // 12 PVCs over ~2 minutes
	rep, err := Analyze(beats)
	if err != nil {
		t.Fatal(err)
	}
	if rep.VentricularBeats != 12 {
		t.Errorf("VentricularBeats = %d", rep.VentricularBeats)
	}
	want := 12.0 / rep.DurationSec * 3600
	if math.Abs(rep.VentricularPerHour-want) > 0.01 {
		t.Errorf("burden %v, want %v", rep.VentricularPerHour, want)
	}
	// The train is perfectly regular, so NN-only SDNN stays ~0 even
	// though PVCs punctuate it.
	if rep.SDNN > 1e-6 {
		t.Errorf("SDNN %v should exclude PVC-adjacent intervals", rep.SDNN)
	}
}

func TestPauses(t *testing.T) {
	beats := syntheticBeats(50, 0.8, 0)
	// Insert a 2.4 s gap by shifting everything after beat 25.
	for i := 26; i < len(beats); i++ {
		beats[i].Time += 1.6
	}
	rep, err := Analyze(beats)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pauses) != 1 {
		t.Fatalf("pauses = %d, want 1", len(rep.Pauses))
	}
	if math.Abs(rep.Pauses[0].DurationSec-2.4) > 1e-9 {
		t.Errorf("pause duration %v", rep.Pauses[0].DurationSec)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	if _, err := Analyze(nil); err == nil {
		t.Error("empty input accepted")
	}
	if _, err := Analyze([]BeatInput{{Time: 1}, {Time: 1}, {Time: 2}}); err == nil {
		t.Error("non-ascending beats accepted")
	}
	// All-ventricular leaves no NN intervals.
	bad := syntheticBeats(10, 0.8, 1)
	if _, err := Analyze(bad); err == nil {
		t.Error("all-ventricular input accepted")
	}
}

func TestCompareReports(t *testing.T) {
	a := &Report{MeanHR: 75, SDNN: 50, RMSSD: 40, VentricularPerHour: 10}
	b := &Report{MeanHR: 75, SDNN: 55, RMSSD: 40, VentricularPerHour: 10}
	if d := CompareReports(a, b); math.Abs(d-0.1) > 1e-9 {
		t.Errorf("CompareReports = %v, want 0.1", d)
	}
	if d := CompareReports(a, a); d != 0 {
		t.Errorf("self-comparison = %v", d)
	}
}

func TestEndToEndHolterAnalytics(t *testing.T) {
	// Detected beats from a PVC-rich synthetic record produce a sane
	// report matching the generator's configuration.
	rec, err := ecg.RecordByID("106")
	if err != nil {
		t.Fatal(err)
	}
	sig, err := rec.Synthesize(120)
	if err != nil {
		t.Fatal(err)
	}
	det, err := qrs.NewDetector(ecg.FsMITBIH)
	if err != nil {
		t.Fatal(err)
	}
	var beats []BeatInput
	for _, b := range det.DetectBeats(sig.MV[0]) {
		beats = append(beats, BeatInput{
			Time:        float64(b.Sample) / ecg.FsMITBIH,
			Ventricular: b.Ventricular,
		})
	}
	rep, err := Analyze(beats)
	if err != nil {
		t.Fatal(err)
	}
	// Record 106: HR 78, PVC probability 0.17.
	if rep.MeanHR < 60 || rep.MeanHR > 95 {
		t.Errorf("MeanHR %v implausible for record 106", rep.MeanHR)
	}
	if rep.VentricularPerHour < 100 {
		t.Errorf("PVC burden %v too low for a 17%%-PVC record", rep.VentricularPerHour)
	}
}
