// Package energy models the mote's battery budget and estimates node
// lifetime, reproducing the paper's headline energy result: compressing
// with CS before the radio extends node lifetime by ≈12.9 % at CR = 50
// relative to streaming uncompressed samples.
//
// The model is a standard duty-cycle current budget: a base current that
// flows regardless (MCU in its sensing loop, ADC, Bluetooth connection
// maintenance in sniff mode), a radio transmit surcharge proportional to
// airtime, and a CPU surcharge proportional to encoder busy time. The
// default constants are Shimmer-class: a 450 mAh Li-polymer cell, a
// class-2 Bluetooth module drawing ≈40 mA extra while transmitting, and
// a low-MHz MSP430 whose active-mode surcharge is a few mA.
package energy

import (
	"fmt"
	"time"
)

// Budget holds the platform's electrical constants.
type Budget struct {
	// BatteryMAh is the cell capacity.
	BatteryMAh float64
	// BaseCurrentMA flows continuously: MCU sensing loop + ADC +
	// Bluetooth connection maintenance.
	BaseCurrentMA float64
	// RadioTxExtraMA is the additional draw while the radio transmits.
	RadioTxExtraMA float64
	// CPUActiveExtraMA is the additional draw while the MCU runs the
	// encoder at full clock (vs its idle sensing loop).
	CPUActiveExtraMA float64
}

// DefaultBudget returns Shimmer-class constants.
func DefaultBudget() Budget {
	return Budget{
		BatteryMAh:       450,
		BaseCurrentMA:    5.15,
		RadioTxExtraMA:   40,
		CPUActiveExtraMA: 3,
	}
}

// Validate reports parameter errors.
func (b Budget) Validate() error {
	if b.BatteryMAh <= 0 || b.BaseCurrentMA <= 0 || b.RadioTxExtraMA < 0 || b.CPUActiveExtraMA < 0 {
		return fmt.Errorf("energy: non-physical budget %+v", b)
	}
	return nil
}

// Load is one operating point: the duty cycles of the radio and the CPU.
type Load struct {
	// RadioDuty is the fraction of time the radio transmits.
	RadioDuty float64
	// CPUDuty is the fraction of time the MCU runs the encoder.
	CPUDuty float64
}

// Validate reports load errors.
func (l Load) Validate() error {
	if l.RadioDuty < 0 || l.RadioDuty > 1 || l.CPUDuty < 0 || l.CPUDuty > 1 {
		return fmt.Errorf("energy: duty cycles out of [0, 1]: %+v", l)
	}
	return nil
}

// AverageCurrentMA returns the mean current at the operating point.
func (b Budget) AverageCurrentMA(l Load) float64 {
	return b.BaseCurrentMA + b.RadioTxExtraMA*l.RadioDuty + b.CPUActiveExtraMA*l.CPUDuty
}

// Lifetime returns the modeled node lifetime at the operating point.
func (b Budget) Lifetime(l Load) (time.Duration, error) {
	if err := b.Validate(); err != nil {
		return 0, err
	}
	if err := l.Validate(); err != nil {
		return 0, err
	}
	hours := b.BatteryMAh / b.AverageCurrentMA(l)
	return time.Duration(hours * float64(time.Hour)), nil
}

// LoadFromAirtime builds a Load from per-window figures: the airtime and
// encoder busy time spent for each window of windowSeconds.
func LoadFromAirtime(airtimePerWindow, cpuPerWindow time.Duration, windowSeconds float64) (Load, error) {
	if windowSeconds <= 0 {
		return Load{}, fmt.Errorf("energy: window %v must be positive", windowSeconds)
	}
	l := Load{
		RadioDuty: airtimePerWindow.Seconds() / windowSeconds,
		CPUDuty:   cpuPerWindow.Seconds() / windowSeconds,
	}
	if err := l.Validate(); err != nil {
		return Load{}, err
	}
	return l, nil
}
