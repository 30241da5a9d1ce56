package ecg

import (
	"math"
	"sort"
	"testing"

	"csecg/internal/wavelet"
)

func defaultCfg() Config {
	return Config{
		HeartRateBPM:     75,
		HRVariability:    0.05,
		RespRateHz:       0.25,
		AmplitudeScale:   1,
		BaselineWanderMV: 0.05,
		MuscleNoiseMV:    0.02,
		PowerlineMV:      0.004,
		PowerlineHz:      60,
		Seed:             1,
	}
}

func TestGenerateBasicShape(t *testing.T) {
	sig, err := Generate(defaultCfg(), 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(sig.MV[0]); got != 3600 {
		t.Fatalf("channel 0 length %d, want 3600", got)
	}
	if got := len(sig.MV[1]); got != 3600 {
		t.Fatalf("channel 1 length %d, want 3600", got)
	}
	// ~75 bpm for 10 s ⇒ ~12-13 beats.
	if n := len(sig.Ann); n < 9 || n > 16 {
		t.Errorf("annotation count %d, want ≈12", n)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, _ := Generate(defaultCfg(), 5)
	b, _ := Generate(defaultCfg(), 5)
	for i := range a.MV[0] {
		if a.MV[0][i] != b.MV[0][i] {
			t.Fatalf("same seed diverged at sample %d", i)
		}
	}
	cfg := defaultCfg()
	cfg.Seed = 2
	c, _ := Generate(cfg, 5)
	same := true
	for i := range a.MV[0] {
		if a.MV[0][i] != c.MV[0][i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical signal")
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := defaultCfg()
	bad.HeartRateBPM = 10
	if _, err := Generate(bad, 5); err == nil {
		t.Error("expected error: heart rate too low")
	}
	bad = defaultCfg()
	bad.AmplitudeScale = 0
	if _, err := Generate(bad, 5); err == nil {
		t.Error("expected error: zero amplitude")
	}
	bad = defaultCfg()
	bad.PVCProb = 0.5
	bad.APCProb = 0.5
	if _, err := Generate(bad, 5); err == nil {
		t.Error("expected error: probabilities too high")
	}
	if _, err := Generate(defaultCfg(), 0); err == nil {
		t.Error("expected error: zero duration")
	}
}

func TestRPeaksNearAnnotations(t *testing.T) {
	cfg := defaultCfg()
	cfg.BaselineWanderMV = 0
	cfg.MuscleNoiseMV = 0
	cfg.PowerlineMV = 0
	sig, err := Generate(cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	for _, ann := range sig.Ann {
		if ann.Type != Normal {
			continue
		}
		// The true local max within ±40 ms must sit within one sample of
		// the annotation (phase quantization allows ±1) and be near the
		// nominal 1.2 mV R amplitude.
		v := sig.MV[0][ann.Sample]
		if v < 0.8 {
			t.Errorf("R at %v: amplitude %v too low", ann.Time, v)
		}
		lo, hi := ann.Sample-14, ann.Sample+14
		if lo < 0 || hi >= len(sig.MV[0]) {
			continue
		}
		argmax := lo
		for i := lo; i <= hi; i++ {
			if sig.MV[0][i] > sig.MV[0][argmax] {
				argmax = i
			}
		}
		if d := argmax - ann.Sample; d < -1 || d > 1 {
			t.Errorf("R annotation at %d but local max at %d", ann.Sample, argmax)
		}
	}
}

func TestHeartRateControlsBeatCount(t *testing.T) {
	for _, hr := range []float64{50, 75, 120} {
		cfg := defaultCfg()
		cfg.HeartRateBPM = hr
		cfg.HRVariability = 0.01
		sig, err := Generate(cfg, 60)
		if err != nil {
			t.Fatal(err)
		}
		want := hr
		got := float64(len(sig.Ann))
		if math.Abs(got-want) > want*0.08 {
			t.Errorf("hr %v: %v beats in 60 s, want ≈%v", hr, got, want)
		}
	}
}

func TestPVCInjection(t *testing.T) {
	cfg := defaultCfg()
	cfg.PVCProb = 0.2
	sig, err := Generate(cfg, 120)
	if err != nil {
		t.Fatal(err)
	}
	pvcs := 0
	for _, a := range sig.Ann {
		if a.Type == PVC {
			pvcs++
		}
	}
	frac := float64(pvcs) / float64(len(sig.Ann))
	if frac < 0.08 || frac > 0.40 {
		t.Errorf("PVC fraction %v, want ≈0.2", frac)
	}
}

func TestDroppedBeatsCreatePauses(t *testing.T) {
	cfg := defaultCfg()
	cfg.DropProb = 0.15
	cfg.HRVariability = 0.02
	sig, err := Generate(cfg, 120)
	if err != nil {
		t.Fatal(err)
	}
	meanRR := 60 / cfg.HeartRateBPM
	pauses := 0
	for i := 1; i < len(sig.Ann); i++ {
		if sig.Ann[i].Time-sig.Ann[i-1].Time > 1.7*meanRR {
			pauses++
		}
	}
	if pauses == 0 {
		t.Error("no pauses found despite 15% drop probability")
	}
}

func TestQuasiPeriodicity(t *testing.T) {
	// Beat-aligned correlation: 0.5 s windows centered on consecutive
	// normal R peaks must be nearly identical — the redundancy the
	// encoder's difference stage exploits.
	cfg := defaultCfg()
	cfg.MuscleNoiseMV = 0
	cfg.BaselineWanderMV = 0
	sig, err := Generate(cfg, 30)
	if err != nil {
		t.Fatal(err)
	}
	half := int(0.25 * FsMITBIH)
	x := sig.MV[0]
	var corrs []float64
	for i := 1; i < len(sig.Ann); i++ {
		a, b := sig.Ann[i-1], sig.Ann[i]
		if a.Type != Normal || b.Type != Normal {
			continue
		}
		if a.Sample-half < 0 || b.Sample+half >= len(x) {
			continue
		}
		var num, denA, denB float64
		for k := -half; k < half; k++ {
			va, vb := x[a.Sample+k], x[b.Sample+k]
			num += va * vb
			denA += va * va
			denB += vb * vb
		}
		corrs = append(corrs, num/math.Sqrt(denA*denB))
	}
	if len(corrs) < 10 {
		t.Fatalf("only %d beat pairs available", len(corrs))
	}
	var mean float64
	for _, c := range corrs {
		mean += c
	}
	mean /= float64(len(corrs))
	if mean < 0.95 {
		t.Errorf("mean beat-aligned correlation %v, want > 0.95", mean)
	}
}

func TestWaveletSparsity(t *testing.T) {
	// The premise of the paper: ECG windows are compressible in a
	// wavelet basis. Keeping the top 15% of db4 coefficients of a clean
	// 2-second window must retain ≥ 99% of the energy.
	cfg := defaultCfg()
	cfg.MuscleNoiseMV = 0
	cfg.PowerlineMV = 0
	sig, err := Generate(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	win := sig.MV[0][:512]
	w, err := wavelet.New[float64](4, 512, 5)
	if err != nil {
		t.Fatal(err)
	}
	coeffs := make([]float64, 512)
	w.Forward(coeffs, win)
	if f := topKNormFraction(coeffs, 512*15/100); f < 0.99 {
		t.Errorf("top-15%% energy fraction %v, want ≥ 0.99", f)
	}
}

func TestDigitizeRoundTrip(t *testing.T) {
	mv := []float64{0, 1, -1, 2.5, -2.5, 5.2, -5.2, 0.001}
	adc := Digitize(mv)
	back := make([]float64, len(adc)) // Digitize inverted, up to quantization
	for i, v := range adc {
		back[i] = float64(int32(v)-ADCBaseline) / ADCGain
	}
	for i, v := range mv {
		want := v
		// Clamp: ±(1023/200 or 1024/200) mV representable.
		if want > (ADCMax-ADCBaseline)/ADCGain {
			want = (ADCMax - ADCBaseline) / ADCGain
		}
		if want < -ADCBaseline/ADCGain {
			want = -ADCBaseline / ADCGain
		}
		if math.Abs(back[i]-want) > 1.0/ADCGain {
			t.Errorf("sample %d: %v -> %d -> %v", i, v, adc[i], back[i])
		}
	}
}

func TestDigitizeClamps(t *testing.T) {
	adc := Digitize([]float64{100, -100})
	if adc[0] != ADCMax {
		t.Errorf("positive rail = %d, want %d", adc[0], ADCMax)
	}
	if adc[1] != 0 {
		t.Errorf("negative rail = %d, want 0", adc[1])
	}
}

func TestDatabaseProperties(t *testing.T) {
	db := Database()
	if len(db) != 48 {
		t.Fatalf("database has %d records, want 48", len(db))
	}
	seen := map[string]bool{}
	for _, r := range db {
		if seen[r.ID] {
			t.Errorf("duplicate record ID %s", r.ID)
		}
		seen[r.ID] = true
		if err := r.Cfg.Validate(); err != nil {
			t.Errorf("record %s config invalid: %v", r.ID, err)
		}
		if r.Description == "" {
			t.Errorf("record %s missing description", r.ID)
		}
	}
	// Seeds must differ (IDs hash distinctly).
	seeds := map[uint64]string{}
	for _, r := range db {
		if prev, dup := seeds[r.Cfg.Seed]; dup {
			t.Errorf("records %s and %s share seed", prev, r.ID)
		}
		seeds[r.Cfg.Seed] = r.ID
	}
}

func TestRecordByID(t *testing.T) {
	r, err := RecordByID("208")
	if err != nil {
		t.Fatal(err)
	}
	if r.Cfg.PVCProb < 0.2 {
		t.Errorf("record 208 should be PVC-rich, got %v", r.Cfg.PVCProb)
	}
	if _, err := RecordByID("999"); err == nil {
		t.Error("expected error for unknown ID")
	}
}

func TestChannel256(t *testing.T) {
	r, err := RecordByID("100")
	if err != nil {
		t.Fatal(err)
	}
	samples, err := r.Channel256(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := int(4*FsMITBIH) * 32 / 45
	if math.Abs(float64(len(samples)-want)) > 2 {
		t.Errorf("256 Hz length %d, want ≈%d", len(samples), want)
	}
	// Values stay inside the 11-bit range and near baseline on average.
	var sum float64
	for _, v := range samples {
		if v < 0 || v > ADCMax {
			t.Fatalf("sample %d out of ADC range", v)
		}
		sum += float64(v)
	}
	mean := sum / float64(len(samples))
	if mean < 900 || mean > 1200 {
		t.Errorf("mean ADC level %v, want ≈%d", mean, ADCBaseline)
	}
	if _, err := r.Channel256(4, 2); err == nil {
		t.Error("expected error for channel 2")
	}
}

func TestBeatTypeString(t *testing.T) {
	cases := map[BeatType]string{Normal: "N", PVC: "V", APC: "A", Dropped: "-", BeatType(99): "?"}
	for bt, want := range cases {
		if got := bt.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", bt, got, want)
		}
	}
}

func BenchmarkGenerate10s(b *testing.B) {
	cfg := defaultCfg()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(cfg, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkChannel256TenSeconds(b *testing.B) {
	r, _ := RecordByID("100")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Channel256(10, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func TestAFRhythm(t *testing.T) {
	af := defaultCfg()
	af.AF = true
	af.Seed = 31
	sinus := defaultCfg()
	sinus.Seed = 31
	rrCV := func(cfg Config) float64 {
		sig, err := Generate(cfg, 120)
		if err != nil {
			t.Fatal(err)
		}
		var rrs []float64
		for i := 1; i < len(sig.Ann); i++ {
			rrs = append(rrs, sig.Ann[i].Time-sig.Ann[i-1].Time)
		}
		var mean float64
		for _, r := range rrs {
			mean += r
		}
		mean /= float64(len(rrs))
		var ss float64
		for _, r := range rrs {
			d := r - mean
			ss += d * d
		}
		return math.Sqrt(ss/float64(len(rrs))) / mean
	}
	cvAF, cvSinus := rrCV(af), rrCV(sinus)
	if cvAF < 2*cvSinus {
		t.Errorf("AF RR coefficient of variation %.3f not well above sinus %.3f", cvAF, cvSinus)
	}
	if cvAF < 0.15 {
		t.Errorf("AF RR CV %.3f below the irregularly-irregular range", cvAF)
	}
}

func TestAFNoMemoryInRR(t *testing.T) {
	// The annotated R peaks sit mid-cycle, so annotation RRs are a
	// 2-term moving average of the generator's true RR draws; an i.i.d.
	// AF rhythm therefore shows lag-1 autocorrelation ≈ 0.5 but lag-2
	// ≈ 0. Respiration-coupled sinus rhythm keeps substantial lag-2
	// memory. That contrast is what this test pins.
	lag2 := func(af bool) float64 {
		cfg := defaultCfg()
		cfg.AF = af
		cfg.Seed = 33
		sig, err := Generate(cfg, 300)
		if err != nil {
			t.Fatal(err)
		}
		var rrs []float64
		for i := 1; i < len(sig.Ann); i++ {
			rrs = append(rrs, sig.Ann[i].Time-sig.Ann[i-1].Time)
		}
		var mean float64
		for _, r := range rrs {
			mean += r
		}
		mean /= float64(len(rrs))
		var num, den float64
		for i := 2; i < len(rrs); i++ {
			num += (rrs[i] - mean) * (rrs[i-2] - mean)
		}
		for _, r := range rrs {
			den += (r - mean) * (r - mean)
		}
		return num / den
	}
	afCorr, sinusCorr := lag2(true), lag2(false)
	if math.Abs(afCorr) > 0.15 {
		t.Errorf("AF lag-2 RR autocorrelation %.3f, want ≈0", afCorr)
	}
	// Sinus rhythm carries respiratory structure at lag 2 — at 0.25 Hz
	// respiration and ~75 bpm the coupling phase makes it *negative*
	// (≈cos 144°); either sign, it must be clearly nonzero.
	if math.Abs(sinusCorr) < math.Abs(afCorr)+0.1 {
		t.Errorf("sinus |lag-2| %.3f not above AF %.3f", math.Abs(sinusCorr), math.Abs(afCorr))
	}
}

func TestAFFWavePresence(t *testing.T) {
	// Between beats, the AF baseline carries 4.5-8 Hz f-wave energy that
	// sinus rhythm lacks. Compare band energy in a TQ segment.
	bandEnergy := func(afOn bool) float64 {
		cfg := defaultCfg()
		cfg.AF = afOn
		cfg.FWaveMV = 0.1
		cfg.HeartRateBPM = 45 // long diastole keeps T-wave energy away
		cfg.MuscleNoiseMV = 0
		cfg.BaselineWanderMV = 0
		cfg.PowerlineMV = 0
		cfg.Seed = 35
		sig, err := Generate(cfg, 30)
		if err != nil {
			t.Fatal(err)
		}
		// Goertzel-style energy over 4.5-8 Hz on the full signal minus
		// QRS neighbourhoods is overkill; instead use a simple bandpass
		// via DFT bins over a beat-free gap. Find the longest annotation
		// gap and take its middle 0.3 s.
		best, bestGap := 0, 0.0
		for i := 1; i < len(sig.Ann); i++ {
			if g := sig.Ann[i].Time - sig.Ann[i-1].Time; g > bestGap {
				bestGap = g
				best = i
			}
		}
		// Mid-diastole: halfway into the gap, past the previous T wave
		// and before the next beat's onset.
		mid := sig.Ann[best-1].Time + 0.5*bestGap
		start := int((mid - 0.15) * FsMITBIH)
		seg := append([]float64(nil), sig.MV[0][start:start+int(0.3*FsMITBIH)]...)
		// Remove the mean: DC leaks into every non-integer-period DFT
		// bin of a short window and would swamp the f-wave band.
		var segMean float64
		for _, v := range seg {
			segMean += v
		}
		segMean /= float64(len(seg))
		for i := range seg {
			seg[i] -= segMean
		}
		var energy float64
		for f := 4.5; f <= 8; f += 0.5 {
			var re, im float64
			for n, v := range seg {
				re += v * math.Cos(2*math.Pi*f*float64(n)/FsMITBIH)
				im += v * math.Sin(2*math.Pi*f*float64(n)/FsMITBIH)
			}
			energy += re*re + im*im
		}
		return energy
	}
	af, sinus := bandEnergy(true), bandEnergy(false)
	if af < 5*sinus {
		t.Errorf("AF f-wave band energy %.3g not well above sinus %.3g", af, sinus)
	}
}

func TestAFRecordsInDatabase(t *testing.T) {
	afIDs := map[string]bool{"202": true, "219": true, "222": true}
	for _, r := range Database() {
		if r.Cfg.AF != afIDs[r.ID] {
			t.Errorf("record %s AF flag %v, want %v", r.ID, r.Cfg.AF, afIDs[r.ID])
		}
	}
}

// topKNormFraction returns the share of c's ℓ2 norm that its k
// largest-magnitude entries hold.
func topKNormFraction(c []float64, k int) float64 {
	sq := make([]float64, len(c))
	total := 0.0
	for i, v := range c {
		sq[i] = v * v
		total += sq[i]
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(sq)))
	kept := 0.0
	for _, v := range sq[:k] {
		kept += v
	}
	return math.Sqrt(kept / total)
}
