package analog

import (
	"fmt"
	"math"

	"advdiag/internal/phys"
)

// ADC digitizes the readout voltage (paper §II-C: the current readout
// translates the cell current "into a voltage that can be digitized
// through an ADC").
type ADC struct {
	// Bits is the resolution.
	Bits int
	// FullScale is the input range (±FullScale).
	FullScale phys.Voltage
	// SampleRate is the conversion rate in samples/s.
	SampleRate float64
}

// DefaultADC returns the catalog converter: 12 bits over ±1 V at
// 1 kS/s — enough for 10 nA steps on the 100 kΩ oxidase readout
// (LSB = 0.49 mV ≙ 4.9 nA) and 100 nA steps on the CYP readout.
func DefaultADC() *ADC {
	return &ADC{Bits: 12, FullScale: 1.0, SampleRate: 1000}
}

// Validate checks the parameters.
func (a *ADC) Validate() error {
	if a.Bits < 1 || a.Bits > 32 {
		return fmt.Errorf("analog: ADC bits %d outside [1,32]", a.Bits)
	}
	if a.FullScale <= 0 {
		return fmt.Errorf("analog: ADC full scale must be positive")
	}
	if a.SampleRate <= 0 {
		return fmt.Errorf("analog: ADC sample rate must be positive")
	}
	return nil
}

// LSB returns the quantization step.
func (a *ADC) LSB() phys.Voltage {
	return phys.Voltage(2 * float64(a.FullScale) / float64(uint64(1)<<uint(a.Bits)))
}

// Quantize converts v to the nearest code and back, clamping at the
// rails — the value the digital side of the platform actually sees.
func (a *ADC) Quantize(v phys.Voltage) phys.Voltage {
	lsb := float64(a.LSB())
	return phys.Voltage(adcLevel(adcCode(float64(v), float64(a.FullScale), lsb), lsb, a.maxCode()))
}

// maxCode returns the largest positive code, 2^(Bits−1) − 1.
func (a *ADC) maxCode() float64 {
	return float64(uint64(1)<<uint(a.Bits-1)) - 1
}

// adcCode clamps x to the rails ±fs and rounds it to the nearest code;
// adcLevel then turns the code into its voltage. Quantize and
// Chain.DigitizeRun both quantize through the pair, DigitizeRun with
// the step and largest code Chain.Reset fixed for the run. Each half is
// small enough to inline into DigitizeRun's loop, where a call would
// spill the loop's registers on every sample.
func adcCode(x, fs, lsb float64) float64 {
	if x > fs {
		x = fs
	}
	if x < -fs {
		x = -fs
	}
	return math.Round(x / lsb)
}

// adcLevel clamps code to the converter's two's-complement range and
// returns its voltage.
func adcLevel(code, lsb, maxCode float64) float64 {
	if code > maxCode {
		code = maxCode
	}
	if code < -maxCode-1 {
		code = -maxCode - 1
	}
	return code * lsb
}

// Code returns the integer code for v (clamped two's-complement range).
func (a *ADC) Code(v phys.Voltage) int {
	lsb := float64(a.LSB())
	code := int(math.Round(mathClamp(float64(v), -float64(a.FullScale), float64(a.FullScale)) / lsb))
	maxCode := int(uint64(1)<<uint(a.Bits-1)) - 1
	if code > maxCode {
		code = maxCode
	}
	if code < -maxCode-1 {
		code = -maxCode - 1
	}
	return code
}

func mathClamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
