package ecg

import (
	"fmt"
	"math"

	"csecg/internal/rng"
)

// FsMITBIH is the sample rate of the substitute records, matching the
// MIT-BIH Arrhythmia Database.
const FsMITBIH = 360.0

// Config parameterizes a synthetic record.
type Config struct {
	// HeartRateBPM is the mean sinus rate.
	HeartRateBPM float64
	// HRVariability is the fractional standard deviation of the RR
	// interval (typical ambulatory values 0.03-0.10).
	HRVariability float64
	// RespRateHz couples a respiratory oscillation into the RR series
	// (respiratory sinus arrhythmia) and the baseline.
	RespRateHz float64
	// AmplitudeScale multiplies the beat morphology (inter-patient
	// electrode gain spread).
	AmplitudeScale float64
	// PVCProb, APCProb and DropProb are per-beat probabilities of each
	// arrhythmic event.
	PVCProb, APCProb, DropProb float64
	// AF switches the record to atrial fibrillation: irregularly
	// irregular RR intervals (uncorrelated, wide spread), conducted QRS
	// complexes without P waves, and continuous fibrillatory f-waves on
	// the baseline.
	AF bool
	// FWaveMV is the fibrillatory-wave amplitude (default 0.05 mV when
	// AF is set).
	FWaveMV float64
	// BaselineWanderMV, MuscleNoiseMV and PowerlineMV set noise
	// component amplitudes (mV).
	BaselineWanderMV, MuscleNoiseMV, PowerlineMV float64
	// PowerlineHz is 60 in the US recordings; 0 disables the component.
	PowerlineHz float64
	// Seed makes the record reproducible.
	Seed uint64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.HeartRateBPM < 20 || c.HeartRateBPM > 250:
		return fmt.Errorf("ecg: heart rate %.1f bpm out of [20, 250]", c.HeartRateBPM)
	case c.HRVariability < 0 || c.HRVariability > 0.5:
		return fmt.Errorf("ecg: HR variability %.2f out of [0, 0.5]", c.HRVariability)
	case c.PVCProb < 0 || c.APCProb < 0 || c.DropProb < 0:
		return fmt.Errorf("ecg: negative event probability")
	case c.PVCProb+c.APCProb+c.DropProb > 0.9:
		return fmt.Errorf("ecg: event probabilities sum %.2f too high", c.PVCProb+c.APCProb+c.DropProb)
	case c.AmplitudeScale <= 0:
		return fmt.Errorf("ecg: amplitude scale must be positive")
	}
	return nil
}

// Annotation marks one synthesized beat.
type Annotation struct {
	// Time of the R peak in seconds from record start.
	Time float64
	// Sample index of the R peak at FsMITBIH.
	Sample int
	// Type of the beat.
	Type BeatType
}

// Signal is a synthesized two-channel record segment in millivolts.
type Signal struct {
	// Fs is the sample rate (FsMITBIH).
	Fs float64
	// MV holds the two channels.
	MV [2][]float64
	// Ann lists the beats in time order.
	Ann []Annotation
}

// beat is one scheduled beat in the rhythm.
type beat struct {
	start, dur float64 // cycle start time and duration (seconds)
	typ        BeatType
}

// Generate synthesizes seconds of two-channel ECG under cfg.
func Generate(cfg Config, seconds float64) (*Signal, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if seconds <= 0 {
		return nil, fmt.Errorf("ecg: non-positive duration %v", seconds)
	}
	gen := rng.New(cfg.Seed)
	beats := scheduleBeats(cfg, seconds, gen)
	n := int(seconds * FsMITBIH)
	sig := &Signal{Fs: FsMITBIH}
	sig.MV[0] = make([]float64, n)
	sig.MV[1] = make([]float64, n)
	// Render each beat additively over its cycle ±25% (T and P tails
	// extend past the nominal cycle boundaries).
	for _, b := range beats {
		if b.typ == Dropped {
			continue
		}
		l1, l2 := templateFor(b.typ)
		if cfg.AF && b.typ == Normal {
			// Fibrillating atria conduct no organized P wave.
			l1, l2 = normalLead1NoP, normalLead2NoP
		}
		ext := 0.25 * b.dur
		i0 := int((b.start - ext) * FsMITBIH)
		i1 := int((b.start + b.dur + ext) * FsMITBIH)
		if i0 < 0 {
			i0 = 0
		}
		if i1 > n {
			i1 = n
		}
		for i := i0; i < i1; i++ {
			t := float64(i) / FsMITBIH
			phase := (t - b.start) / b.dur * 2 * math.Pi
			sig.MV[0][i] += cfg.AmplitudeScale * l1.value(phase)
			sig.MV[1][i] += cfg.AmplitudeScale * l2.value(phase)
		}
		// Annotate the R peak (phase π) of non-dropped beats.
		rT := b.start + b.dur/2
		rs := int(rT*FsMITBIH + 0.5)
		if rs >= 0 && rs < n {
			sig.Ann = append(sig.Ann, Annotation{Time: rT, Sample: rs, Type: b.typ})
		}
	}
	addNoise(cfg, sig, gen)
	return sig, nil
}

// scheduleBeats builds the RR series with respiration coupling and
// arrhythmia events until the record duration is covered.
func scheduleBeats(cfg Config, seconds float64, gen *rng.Xoshiro) []beat {
	meanRR := 60 / cfg.HeartRateBPM
	var beats []beat
	t := -0.2 * meanRR // start mid-cycle so the record begins inside a beat
	for t < seconds {
		var rr float64
		if cfg.AF {
			// Irregularly irregular: wide uniform spread, no memory and
			// no respiratory coupling (the sinus node is not driving).
			rr = meanRR * (0.6 + 0.8*gen.Float64())
		} else {
			rr = meanRR * (1 + cfg.HRVariability*gen.NormFloat64())
			if cfg.RespRateHz > 0 {
				rr *= 1 + 0.04*math.Sin(2*math.Pi*cfg.RespRateHz*t)
			}
		}
		if rr < 0.25 {
			rr = 0.25 // physiologic floor (240 bpm)
		}
		typ := Normal
		switch u := gen.Float64(); {
		case u < cfg.PVCProb:
			typ = PVC
		case u < cfg.PVCProb+cfg.APCProb:
			typ = APC
		case u < cfg.PVCProb+cfg.APCProb+cfg.DropProb:
			typ = Dropped
		}
		switch typ {
		case PVC:
			// Premature coupling then a full compensatory pause.
			coupling := 0.60 * rr
			beats = append(beats, beat{start: t, dur: coupling, typ: PVC})
			t += coupling + 1.35*rr
		case APC:
			coupling := 0.75 * rr
			beats = append(beats, beat{start: t, dur: coupling, typ: APC})
			t += coupling + 1.05*rr
		case Dropped:
			beats = append(beats, beat{start: t, dur: rr, typ: Dropped})
			t += 2 * rr // sinus pause
		default:
			beats = append(beats, beat{start: t, dur: rr, typ: Normal})
			t += rr
		}
	}
	return beats
}

// addNoise layers baseline wander, muscle artifact and powerline
// interference onto both channels with independent phases/streams.
func addNoise(cfg Config, sig *Signal, gen *rng.Xoshiro) {
	n := len(sig.MV[0])
	for ch := 0; ch < 2; ch++ {
		// Baseline wander: respiration-locked plus a slower drift.
		f1 := cfg.RespRateHz
		if f1 <= 0 {
			f1 = 0.25
		}
		p1 := gen.Float64() * 2 * math.Pi
		p2 := gen.Float64() * 2 * math.Pi
		f2 := 0.05 + 0.04*gen.Float64()
		// Muscle noise: white Gaussian through a one-pole smoother.
		musc := 0.0
		const pole = 0.9 // ≈ 6 Hz corner at 360 Hz — EMG-band energy kept
		plPhase := gen.Float64() * 2 * math.Pi
		// Fibrillatory f-waves: a 5-7 Hz oscillation whose frequency and
		// amplitude wander slowly, present only in AF.
		fAmp := cfg.FWaveMV
		if cfg.AF && fAmp == 0 {
			fAmp = 0.05
		}
		fPhase := gen.Float64() * 2 * math.Pi
		fFreq := 5.5 + gen.Float64()
		for i := 0; i < n; i++ {
			t := float64(i) / sig.Fs
			v := cfg.BaselineWanderMV * (0.7*math.Sin(2*math.Pi*f1*t+p1) + 0.3*math.Sin(2*math.Pi*f2*t+p2))
			musc = pole*musc + (1-pole)*gen.NormFloat64()
			v += cfg.MuscleNoiseMV * musc * 3.2 // restore unit variance after smoothing
			if cfg.PowerlineMV > 0 && cfg.PowerlineHz > 0 {
				v += cfg.PowerlineMV * math.Sin(2*math.Pi*cfg.PowerlineHz*t+plPhase)
			}
			if cfg.AF {
				fPhase += 2 * math.Pi * fFreq / sig.Fs
				fFreq += 0.001 * gen.NormFloat64() // slow frequency wander
				if fFreq < 4.5 {
					fFreq = 4.5
				}
				if fFreq > 8 {
					fFreq = 8
				}
				mod := 1 + 0.3*math.Sin(2*math.Pi*0.1*t)
				v += fAmp * mod * math.Sin(fPhase)
			}
			sig.MV[ch][i] += v
		}
	}
}
