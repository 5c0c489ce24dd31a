package advdiag_test

import (
	"math"
	"sync"
	"testing"

	"advdiag"
	"advdiag/internal/species"
)

// fuzzPlatforms lazily designs one small platform per option tuple
// (replicas 1–3 × CDS blank off/on), each shared by every fuzz
// execution that picks it (design-space exploration is far too slow to
// redo per input; RunPanel itself is the target).
var fuzzPlatforms = func() (ps [3][2]func() (*advdiag.Platform, error)) {
	for k := range ps {
		for c := range ps[k] {
			ps[k][c] = sync.OnceValues(func() (*advdiag.Platform, error) {
				opts := []advdiag.PlatformOption{advdiag.WithPlatformSeed(3), advdiag.WithReplicas(k + 1)}
				if c == 1 {
					opts = append(opts, advdiag.WithCDSBlank())
				}
				return advdiag.DesignPlatform([]string{"glucose", "benzphetamine"}, opts...)
			})
		}
	}
	return ps
}()

// sampleValid mirrors the documented RunPanel input contract exactly:
// finite, non-negative concentrations of species the registry knows
// (the same lookup the validator uses, so the oracle cannot drift).
func sampleValid(sample map[string]float64) bool {
	for name, mm := range sample {
		if math.IsNaN(mm) || math.IsInf(mm, 0) || mm < 0 || mm > advdiag.MaxSampleConcentrationMM {
			return false
		}
		if _, err := species.Lookup(name); err != nil {
			return false
		}
	}
	return true
}

// physiologic reports whether every concentration of a valid sample lies
// within ten times its species' reference concentration (referenceMM);
// a species with no registered probe must be absent or zero.
func physiologic(sample map[string]float64) bool {
	for name, mm := range sample {
		if mm > 10*referenceMM(name) {
			return false
		}
	}
	return true
}

// FuzzRunPanel feeds arbitrary sample maps to Platform.RunPanel over a
// fuzzed platform option set (replicas 1–3, CDS blank off/on): the
// public entry point must return an error for invalid input (NaN, ±Inf,
// negative concentrations, unknown species) and must never panic, even
// for extreme but formally valid concentrations. A valid sample within
// ten times physiologic must run.
func FuzzRunPanel(f *testing.F) {
	f.Add(uint8(0), false, 2.0, 0.8, "lactate", 1.0)
	f.Add(uint8(0), false, math.NaN(), 0.8, "", 0.0)
	f.Add(uint8(0), false, 2.0, math.Inf(1), "", 0.0)
	f.Add(uint8(0), false, -1.0, 0.8, "", 0.0)
	f.Add(uint8(0), false, 2.0, 0.8, "unobtainium", 1.0)
	f.Add(uint8(0), false, 2.0, 0.8, "dopamine", 0.1)
	f.Add(uint8(0), false, 1e300, 1e-300, "glutamate", 1e6)
	f.Add(uint8(0), false, 0.0, 0.0, "glucose", 5.0)
	f.Add(uint8(1), true, 2.0, 0.8, "", 0.0)
	f.Add(uint8(2), true, 20.0, 4.0, "aminopyrine", 4.0)

	f.Fuzz(func(t *testing.T, replicas uint8, cds bool, glucose, benz float64, extraName string, extraConc float64) {
		k, c := int(replicas%3), 0
		if cds {
			c = 1
		}
		p, err := fuzzPlatforms[k][c]()
		if err != nil {
			t.Fatal(err)
		}
		sample := map[string]float64{"glucose": glucose, "benzphetamine": benz}
		if extraName != "" {
			sample[extraName] = extraConc
		}
		res, err := p.RunPanel(sample)
		if !sampleValid(sample) {
			if err == nil {
				t.Fatalf("invalid sample %v accepted", sample)
			}
			return
		}
		if err != nil {
			if physiologic(sample) {
				t.Fatalf("replicas %d, CDS %t: sample %v within 10× physiologic failed: %v", k+1, cds, sample, err)
			}
			// Extreme-but-valid inputs may legitimately fail downstream
			// (e.g. a degenerate fit); the contract is error, not panic.
			return
		}
		if len(res.Readings) == 0 {
			t.Fatalf("valid sample %v produced no readings", sample)
		}
		for _, r := range res.Readings {
			if math.IsNaN(r.EstimatedMM) {
				t.Fatalf("sample %v: NaN estimate for %s", sample, r.Target)
			}
		}
	})
}
