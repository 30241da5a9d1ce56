package analogcs

import (
	"math"
	"testing"

	"csecg/internal/ecg"
	"csecg/internal/linalg"
	"csecg/internal/metrics"
	"csecg/internal/solver"
	"csecg/internal/wavelet"
)

func idealCfg() Config {
	return Config{M: 256, N: 512, Oversample: 8, ChipSeed: 1, WindowSeconds: 2}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{M: 0, N: 512, Oversample: 8, WindowSeconds: 2},
		{M: 600, N: 512, Oversample: 8, WindowSeconds: 2},
		{M: 256, N: 512, Oversample: 0, WindowSeconds: 2},
		{M: 256, N: 512, Oversample: 8, LeakagePerSecond: -1, WindowSeconds: 2},
		{M: 256, N: 512, Oversample: 8, ADCBits: 30, WindowSeconds: 2},
		{M: 256, N: 512, Oversample: 8, ADCBits: 10, FullScale: 0, WindowSeconds: 2},
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
	if _, err := New(idealCfg()); err != nil {
		t.Fatal(err)
	}
}

func TestIdealMeasureMatchesEffectiveOperator(t *testing.T) {
	// For a piecewise-constant analog signal (constant within each
	// 256 Hz bucket) the ideal front end must agree exactly with the
	// effective discrete matrix.
	fe, err := New(idealCfg())
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 512)
	state := uint64(9)
	for i := range x {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		x[i] = float64(int64(state%2001)-1000) / 100
	}
	y, err := fe.Measure(Upsample(x, 8))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, 256)
	fe.EffectiveMatrix().MatVec(want, x)
	for i := range y {
		if math.Abs(y[i]-want[i]) > 1e-9*(1+math.Abs(want[i])) {
			t.Fatalf("branch %d: measured %v, operator %v", i, y[i], want[i])
		}
	}
}

func TestMeasureValidatesLength(t *testing.T) {
	fe, _ := New(idealCfg())
	if _, err := fe.Measure(make([]float64, 100)); err == nil {
		t.Error("wrong-length analog window accepted")
	}
}

func TestChipSequencesDeterministic(t *testing.T) {
	a, _ := New(idealCfg())
	b, _ := New(idealCfg())
	cfg := idealCfg()
	cfg.ChipSeed = 2
	c, _ := New(cfg)
	same := true
	diff := false
	for i := range a.chips {
		for j := range a.chips[i] {
			if a.chips[i][j] != b.chips[i][j] {
				same = false
			}
			if a.chips[i][j] != c.chips[i][j] {
				diff = true
			}
		}
	}
	if !same {
		t.Error("same seed produced different chips")
	}
	if !diff {
		t.Error("different seeds produced identical chips")
	}
}

func TestLeakageReducesEarlyContributions(t *testing.T) {
	// With leakage, an impulse early in the window contributes less
	// than the same impulse late in the window.
	cfg := idealCfg()
	cfg.LeakagePerSecond = 2
	fe, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	early := make([]float64, fe.ChipCount())
	late := make([]float64, fe.ChipCount())
	early[10] = 1
	late[fe.ChipCount()-10] = 1
	ye, err := fe.Measure(early)
	if err != nil {
		t.Fatal(err)
	}
	yl, err := fe.Measure(late)
	if err != nil {
		t.Fatal(err)
	}
	var eNorm, lNorm float64
	for i := range ye {
		eNorm += ye[i] * ye[i]
		lNorm += yl[i] * yl[i]
	}
	if eNorm >= lNorm/4 {
		t.Errorf("early energy %v not attenuated vs late %v under leakage", eNorm, lNorm)
	}
}

func TestQuantizationBounds(t *testing.T) {
	cfg := idealCfg()
	cfg.ADCBits = 8
	cfg.FullScale = 10
	fe, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, fe.ChipCount())
	for i := range x {
		x[i] = 100 // drives integrators far past full scale
	}
	y, err := fe.Measure(x)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range y {
		if v > 10 || v < -10 {
			t.Fatalf("branch %d output %v beyond full scale", i, v)
		}
	}
	// Quantization step: outputs must be multiples of FS/2^{bits−1}.
	step := 10.0 / 128
	for _, v := range y {
		if r := math.Mod(math.Abs(v)+step/2, step); math.Abs(r-step/2) > 1e-9 {
			t.Fatalf("output %v not on the quantization grid", v)
		}
	}
}

// analogRecovery runs end-to-end recovery through the front end and
// returns the reconstruction SNR on one synthetic ECG window. When
// compensate is true the decoder uses the leakage-compensated operator.
func analogRecovery(t *testing.T, cfg Config, compensate bool) float64 {
	t.Helper()
	fe, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := ecg.RecordByID("100")
	if err != nil {
		t.Fatal(err)
	}
	adc, err := rec.Channel256(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, cfg.N)
	for i := range x {
		x[i] = float64(adc[i+cfg.N]) - ecg.ADCBaseline // skip the edge window
	}
	y, err := fe.Measure(Upsample(x, cfg.Oversample))
	if err != nil {
		t.Fatal(err)
	}
	w, err := wavelet.New[float64](4, cfg.N, 5)
	if err != nil {
		t.Fatal(err)
	}
	phi := fe.EffectiveMatrix()
	if compensate {
		phi = fe.CompensatedMatrix()
	}
	a := linalg.Compose(linalg.OpFromDense(phi), w.SynthesisOp())
	res, err := solver.FISTAContinuation(a, y, solver.Options[float64]{MaxIter: 2400, Tol: 1e-6}, 6)
	if err != nil {
		t.Fatal(err)
	}
	xhat := make([]float64, cfg.N)
	w.Inverse(xhat, res.X)
	prdn, err := metrics.PRDN(x, xhat)
	if err != nil {
		t.Fatal(err)
	}
	return metrics.SNR(prdn)
}

func TestAnalogRecoveryIdeal(t *testing.T) {
	snr := analogRecovery(t, idealCfg(), false)
	// Ideal analog CS at CR 50 should land in the same regime as
	// digital CS (≈20+ dB).
	if snr < 15 {
		t.Errorf("ideal analog CS SNR %.1f dB, want > 15", snr)
	}
}

func TestAnalogRecoveryDegradesGracefully(t *testing.T) {
	ideal := analogRecovery(t, idealCfg(), false)
	leaky := idealCfg()
	leaky.LeakagePerSecond = 1
	leakySNR := analogRecovery(t, leaky, false)
	if leakySNR >= ideal {
		t.Errorf("leakage did not degrade SNR (%.1f vs %.1f)", leakySNR, ideal)
	}
	noisy := idealCfg()
	noisy.NoiseRMS = 20
	noisy.NoiseSeed = 3
	noisySNR := analogRecovery(t, noisy, false)
	if noisySNR >= ideal {
		t.Errorf("noise did not degrade SNR (%.1f vs %.1f)", noisySNR, ideal)
	}
}

func TestLeakageCompensationRestoresQuality(t *testing.T) {
	// Recovering a leaky front end with the calibrated (compensated)
	// operator must restore most of the ideal quality; the ideal
	// operator must not.
	leaky := idealCfg()
	leaky.LeakagePerSecond = 1
	uncompensated := analogRecovery(t, leaky, false)
	compensated := analogRecovery(t, leaky, true)
	ideal := analogRecovery(t, idealCfg(), false)
	if compensated < uncompensated+5 {
		t.Errorf("compensation gained only %.1f dB (%.1f -> %.1f)",
			compensated-uncompensated, uncompensated, compensated)
	}
	// A residual gap remains physical: leakage attenuates early-sample
	// information that no operator correction can restore.
	if compensated < ideal-8 {
		t.Errorf("compensated SNR %.1f dB far below ideal %.1f dB", compensated, ideal)
	}
}

func TestCompensatedMatrixReducesToIdealWithoutLeakage(t *testing.T) {
	fe, _ := New(idealCfg())
	a := fe.EffectiveMatrix()
	b := fe.CompensatedMatrix()
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < a.Cols(); j++ {
			if math.Abs(a.Row(i)[j]-b.Row(i)[j]) > 1e-12 {
				t.Fatalf("matrices differ at (%d,%d) without leakage", i, j)
			}
		}
	}
}

func BenchmarkMeasure(b *testing.B) {
	fe, _ := New(idealCfg())
	x := make([]float64, fe.ChipCount())
	for i := range x {
		x[i] = math.Sin(float64(i) * 0.01)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fe.Measure(x); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRecoverConvenience(t *testing.T) {
	fe, err := New(idealCfg())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fe.Recover(make([]float64, 3), false); err == nil {
		t.Error("wrong measurement count accepted")
	}
	// A wavelet-sparse window recovers through the convenience path.
	rec, err := ecg.RecordByID("100")
	if err != nil {
		t.Fatal(err)
	}
	adc, err := rec.Channel256(6, 0)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 512)
	for i := range x {
		x[i] = float64(adc[i+512]) - ecg.ADCBaseline
	}
	y, err := fe.Measure(Upsample(x, 8))
	if err != nil {
		t.Fatal(err)
	}
	xhat, err := fe.Recover(y, false)
	if err != nil {
		t.Fatal(err)
	}
	prdn, err := metrics.PRDN(x, xhat)
	if err != nil {
		t.Fatal(err)
	}
	if snr := metrics.SNR(prdn); snr < 15 {
		t.Errorf("Recover SNR %.1f dB, want > 15", snr)
	}
}
