package qrs

import (
	"testing"

	"csecg/internal/ecg"
)

// NormalSpecificity returns the fraction of reference normal beats
// classified narrow (1 when none exist).
func (c ClassificationStats) NormalSpecificity() float64 {
	if c.NormalTotal == 0 {
		return 1
	}
	return float64(c.NormalCorrect) / float64(c.NormalTotal)
}

// classifyRecord runs the full detect-and-classify path on a record and
// scores it against ground truth.
func classifyRecord(t *testing.T, id string, seconds float64) ClassificationStats {
	t.Helper()
	rec, err := ecg.RecordByID(id)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := rec.Synthesize(seconds)
	if err != nil {
		t.Fatal(err)
	}
	det, err := NewDetector(ecg.FsMITBIH)
	if err != nil {
		t.Fatal(err)
	}
	beats := det.DetectBeats(sig.MV[0])
	var refS []int
	var refV []bool
	for _, a := range sig.Ann {
		if a.Type == ecg.Dropped {
			continue
		}
		refS = append(refS, a.Sample)
		refV = append(refV, a.Type == ecg.PVC)
	}
	return ScoreClassification(beats, refS, refV, 18)
}

func TestPVCClassificationOnEctopicRecord(t *testing.T) {
	st := classifyRecord(t, "208", 120) // very frequent PVCs
	if st.TruePVC+st.MissedPVC < 10 {
		t.Fatalf("too few PVCs matched (%d)", st.TruePVC+st.MissedPVC)
	}
	if se := st.PVCSensitivity(); se < 0.85 {
		t.Errorf("PVC sensitivity %.3f (TP %d, missed %d)", se, st.TruePVC, st.MissedPVC)
	}
	if sp := st.NormalSpecificity(); sp < 0.90 {
		t.Errorf("normal specificity %.3f (FP %d of %d)", sp, st.FalsePVC, st.NormalTotal)
	}
}

func TestClassificationOnNormalRecord(t *testing.T) {
	st := classifyRecord(t, "122", 60) // clean normal rhythm
	if st.NormalTotal < 40 {
		t.Fatalf("too few normals matched (%d)", st.NormalTotal)
	}
	if sp := st.NormalSpecificity(); sp < 0.95 {
		t.Errorf("normal specificity %.3f on clean record", sp)
	}
}

func TestDetectBeatsWidthsSane(t *testing.T) {
	rec, err := ecg.RecordByID("100")
	if err != nil {
		t.Fatal(err)
	}
	sig, err := rec.Synthesize(30)
	if err != nil {
		t.Fatal(err)
	}
	det, _ := NewDetector(ecg.FsMITBIH)
	beats := det.DetectBeats(sig.MV[0])
	if len(beats) < 20 {
		t.Fatalf("only %d beats", len(beats))
	}
	for _, b := range beats {
		if b.WidthSec <= 0.01 || b.WidthSec > 0.35 {
			t.Fatalf("beat at %d has implausible width %.3f s", b.Sample, b.WidthSec)
		}
	}
}

func TestDetectBeatsEmpty(t *testing.T) {
	det, _ := NewDetector(256)
	if got := det.DetectBeats(make([]float64, 100)); got != nil {
		t.Error("short input produced beats")
	}
}

func TestMedian(t *testing.T) {
	if median(nil) != 0 {
		t.Error("empty median not 0")
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 3 {
		t.Errorf("even median = %v, want upper-middle 3", m)
	}
}

func TestClassificationStableAcrossHeartRates(t *testing.T) {
	// Bradycardic record 117 (HR 51): its wider-in-seconds normal beats
	// must not be called ventricular (the ratio classifier's point).
	st := classifyRecord(t, "117", 60)
	if st.NormalTotal < 30 {
		t.Fatalf("too few normals (%d)", st.NormalTotal)
	}
	if sp := st.NormalSpecificity(); sp < 0.93 {
		t.Errorf("bradycardia specificity %.3f", sp)
	}
}

func TestScoreClassificationCases(t *testing.T) {
	beats := []Beat{
		{Sample: 100, Ventricular: false},
		{Sample: 200, Ventricular: true},
		{Sample: 300, Ventricular: false},
	}
	refS := []int{100, 200, 300, 400}
	refV := []bool{false, true, false, true}
	st := ScoreClassification(beats, refS, refV, 5)
	if st.TruePVC != 1 || st.MissedPVC != 1 || st.NormalCorrect != 2 || st.FalsePVC != 0 {
		t.Errorf("confusion: %+v", st)
	}
	if st.PVCSensitivity() != 0.5 {
		t.Errorf("PVC Se = %v", st.PVCSensitivity())
	}
	if st.NormalSpecificity() != 1 {
		t.Errorf("normal Sp = %v", st.NormalSpecificity())
	}
	// Degenerate inputs.
	empty := ScoreClassification(nil, nil, nil, 5)
	if empty.PVCSensitivity() != 1 || empty.NormalSpecificity() != 1 {
		t.Error("degenerate stats not neutral")
	}
}

func BenchmarkDetectBeats60s(b *testing.B) {
	rec, _ := ecg.RecordByID("208")
	sig, _ := rec.Synthesize(60)
	det, _ := NewDetector(ecg.FsMITBIH)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.DetectBeats(sig.MV[0])
	}
}
