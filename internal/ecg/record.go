package ecg

import (
	"fmt"

	"csecg/internal/dsp"
)

// ADC parameters of the MIT-BIH format: 11-bit resolution over a 10 mV
// range, 200 ADU/mV gain, baseline at mid-scale.
const (
	ADCBits     = 11
	ADCMax      = 1<<ADCBits - 1 // 2047
	ADCGain     = 200.0          // ADU per mV
	ADCBaseline = 1024
)

// Digitize converts millivolts to MIT-BIH-format ADC counts, clamping at
// the 11-bit rails.
func Digitize(mv []float64) []int16 {
	out := make([]int16, len(mv))
	for i, v := range mv {
		var c int32
		if v >= 0 {
			c = int32(v*ADCGain+0.5) + ADCBaseline
		} else {
			c = int32(v*ADCGain-0.5) + ADCBaseline
		}
		if c < 0 {
			c = 0
		}
		if c > ADCMax {
			c = ADCMax
		}
		out[i] = int16(c)
	}
	return out
}

// Record describes one substitute-database record.
type Record struct {
	// ID uses MIT-BIH numbering ("100".."234").
	ID string
	// Cfg is the fully resolved generator configuration.
	Cfg Config
	// Description summarizes the rhythm, mirroring the database notes.
	Description string
}

// Synthesize renders the first `seconds` of the record (both channels,
// 360 Hz, millivolts). The full record is 30 minutes, but callers
// normally render only what an experiment consumes.
func (r Record) Synthesize(seconds float64) (*Signal, error) {
	return Generate(r.Cfg, seconds)
}

// FullDuration is the nominal length of each substitute record: half an
// hour, like the MIT-BIH excerpts.
const FullDuration = 1800.0

// Channel256 renders channel ch resampled to the mote's 256 Hz input
// rate, in ADC counts re-quantized after resampling (the paper feeds
// 256 Hz samples to the Shimmer serial port).
func (r Record) Channel256(seconds float64, ch int) ([]int16, error) {
	if ch < 0 || ch > 1 {
		return nil, fmt.Errorf("ecg: channel %d out of [0, 1]", ch)
	}
	sig, err := r.Synthesize(seconds)
	if err != nil {
		return nil, err
	}
	res := dsp.Resample360To256(sig.MV[ch])
	return Digitize(res), nil
}

// recordSpec drives Database construction.
type recordSpec struct {
	id    string
	hr    float64
	hrv   float64
	amp   float64
	pvc   float64
	apc   float64
	drop  float64
	noise float64 // muscle noise scale, mV
	af    bool
	desc  string
}

// Database returns the 48-record substitute set. IDs and rhythm
// character follow the MIT-BIH catalogue: the 100-series is dominated by
// normal sinus rhythm, the 200-series carries frequent ectopy. Every
// record's generator is seeded from its ID, so the data set is identical
// across runs and machines.
func Database() []Record {
	specs := []recordSpec{
		{"100", 75, 0.04, 1.00, 0.001, 0.015, 0.000, 0.010, false, "normal sinus rhythm, rare APCs"},
		{"101", 70, 0.05, 0.95, 0.001, 0.002, 0.000, 0.020, false, "normal sinus rhythm"},
		{"102", 72, 0.04, 0.80, 0.002, 0.001, 0.002, 0.015, false, "paced-like low amplitude"},
		{"103", 72, 0.05, 1.10, 0.001, 0.002, 0.000, 0.012, false, "normal sinus rhythm"},
		{"104", 74, 0.06, 0.85, 0.010, 0.002, 0.004, 0.030, false, "noisy, occasional PVCs"},
		{"105", 82, 0.06, 1.05, 0.015, 0.001, 0.000, 0.040, false, "high noise, PVCs"},
		{"106", 78, 0.08, 1.10, 0.170, 0.000, 0.000, 0.015, false, "frequent PVCs, bigeminy-like"},
		{"107", 71, 0.04, 1.30, 0.020, 0.000, 0.000, 0.012, false, "high-amplitude complexes"},
		{"108", 64, 0.07, 0.90, 0.005, 0.020, 0.005, 0.045, false, "noisy baseline, APCs"},
		{"109", 85, 0.04, 1.05, 0.013, 0.000, 0.000, 0.015, false, "LBBB-like, PVCs"},
		{"111", 70, 0.05, 0.90, 0.004, 0.000, 0.000, 0.020, false, "BBB-like morphology"},
		{"112", 84, 0.03, 0.95, 0.001, 0.001, 0.000, 0.010, false, "normal sinus rhythm"},
		{"113", 60, 0.09, 1.15, 0.000, 0.003, 0.000, 0.012, false, "sinus arrhythmia"},
		{"114", 58, 0.06, 0.85, 0.020, 0.005, 0.000, 0.018, false, "PVCs, slow rate"},
		{"115", 65, 0.05, 1.10, 0.000, 0.001, 0.000, 0.010, false, "normal sinus rhythm"},
		{"116", 80, 0.04, 1.20, 0.053, 0.001, 0.000, 0.014, false, "PVCs"},
		{"117", 51, 0.04, 1.00, 0.001, 0.001, 0.000, 0.010, false, "bradycardia"},
		{"118", 73, 0.05, 1.05, 0.007, 0.040, 0.000, 0.013, false, "RBBB-like, APCs"},
		{"119", 67, 0.07, 1.15, 0.220, 0.000, 0.000, 0.012, false, "trigeminy-like PVCs"},
		{"121", 62, 0.04, 0.95, 0.001, 0.001, 0.000, 0.022, false, "normal sinus rhythm"},
		{"122", 82, 0.03, 1.00, 0.000, 0.000, 0.000, 0.008, false, "clean normal rhythm"},
		{"123", 51, 0.05, 1.05, 0.002, 0.000, 0.000, 0.010, false, "bradycardia"},
		{"124", 54, 0.06, 1.10, 0.021, 0.012, 0.002, 0.011, false, "junctional-like, PVCs"},
		{"200", 88, 0.09, 1.00, 0.230, 0.010, 0.000, 0.030, false, "frequent multifocal PVCs"},
		{"201", 68, 0.12, 0.95, 0.080, 0.040, 0.010, 0.020, false, "AF-like irregularity, PVCs"},
		{"202", 63, 0.11, 1.00, 0.008, 0.015, 0.004, 0.016, true, "atrial fibrillation"},
		{"203", 98, 0.13, 0.95, 0.150, 0.000, 0.008, 0.050, false, "very noisy, frequent ectopy"},
		{"205", 89, 0.05, 1.05, 0.027, 0.001, 0.000, 0.010, false, "PVCs, runs"},
		{"207", 73, 0.1, 0.90, 0.070, 0.035, 0.012, 0.035, false, "mixed severe arrhythmia"},
		{"208", 99, 0.08, 1.10, 0.330, 0.001, 0.000, 0.025, false, "very frequent PVCs"},
		{"209", 90, 0.06, 1.00, 0.001, 0.120, 0.000, 0.014, false, "frequent APCs"},
		{"210", 89, 0.09, 0.95, 0.075, 0.008, 0.004, 0.020, false, "AF-like, PVCs"},
		{"212", 91, 0.04, 1.05, 0.000, 0.001, 0.000, 0.012, false, "RBBB-like, clean"},
		{"213", 109, 0.05, 1.25, 0.070, 0.009, 0.000, 0.015, false, "fast rate, PVCs"},
		{"214", 78, 0.06, 1.10, 0.110, 0.000, 0.002, 0.018, false, "LBBB-like, PVCs"},
		{"215", 112, 0.06, 0.90, 0.050, 0.001, 0.000, 0.020, false, "fast rate, PVCs"},
		{"217", 74, 0.06, 1.05, 0.090, 0.000, 0.004, 0.016, false, "paced-like with PVCs"},
		{"219", 74, 0.09, 1.10, 0.030, 0.003, 0.015, 0.014, true, "atrial fibrillation with pauses"},
		{"220", 69, 0.05, 1.00, 0.000, 0.045, 0.000, 0.010, false, "APCs"},
		{"221", 80, 0.1, 0.95, 0.160, 0.000, 0.000, 0.018, false, "AF-like, PVCs"},
		{"222", 84, 0.11, 0.90, 0.001, 0.090, 0.006, 0.022, true, "atrial fibrillation, APCs"},
		{"223", 87, 0.07, 1.15, 0.190, 0.030, 0.000, 0.013, false, "PVCs, bigeminy episodes"},
		{"228", 71, 0.08, 0.95, 0.160, 0.001, 0.006, 0.035, false, "noisy, frequent PVCs"},
		{"230", 75, 0.05, 1.05, 0.001, 0.001, 0.000, 0.012, false, "normal with WPW-like beats"},
		{"231", 62, 0.06, 1.00, 0.001, 0.001, 0.020, 0.012, false, "blocked beats, pauses"},
		{"232", 72, 0.08, 0.95, 0.000, 0.290, 0.012, 0.014, false, "very frequent APCs, pauses"},
		{"233", 102, 0.07, 1.10, 0.270, 0.003, 0.000, 0.018, false, "frequent PVCs, fast rate"},
		{"234", 90, 0.04, 1.00, 0.001, 0.002, 0.000, 0.010, false, "normal sinus rhythm"},
	}
	recs := make([]Record, len(specs))
	for i, s := range specs {
		seed := uint64(0xEC6_0000)
		for _, c := range s.id {
			seed = seed*131 + uint64(c)
		}
		recs[i] = Record{
			ID:          s.id,
			Description: s.desc,
			Cfg: Config{
				HeartRateBPM:     s.hr,
				HRVariability:    s.hrv,
				RespRateHz:       0.20 + 0.1*float64(i%5)/5,
				AmplitudeScale:   s.amp,
				PVCProb:          s.pvc,
				APCProb:          s.apc,
				DropProb:         s.drop,
				AF:               s.af,
				BaselineWanderMV: 0.04 + s.noise,
				MuscleNoiseMV:    s.noise,
				PowerlineMV:      0.004,
				PowerlineHz:      60,
				Seed:             seed,
			},
		}
	}
	return recs
}

// RecordByID returns the record with the given ID.
func RecordByID(id string) (Record, error) {
	for _, r := range Database() {
		if r.ID == id {
			return r, nil
		}
	}
	return Record{}, fmt.Errorf("ecg: no record %q in substitute database", id)
}
