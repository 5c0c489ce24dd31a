package advdiag

import (
	"advdiag/internal/analysis"
	"advdiag/internal/enzyme"
	"advdiag/internal/measure"
	"advdiag/internal/phys"
)

// peakNearBinding locates the reduction peak nearest to the expected
// potential in a CV result.
func peakNearBinding(res *measure.CVResult, expected phys.Voltage) (VoltammetricPeak, error) {
	pk, err := analysis.PeakNear(res.Voltammogram, expected, phys.MilliVolts(80))
	if err != nil {
		return VoltammetricPeak{}, err
	}
	return VoltammetricPeak{
		PotentialMV:     pk.Potential.MilliVolts(),
		HeightMicroAmps: pk.Height.MicroAmps(),
	}, nil
}

// Targets returns every species name the built-in probe registry can
// sense, sorted.
func Targets() []string {
	seen := map[string]bool{}
	var out []string
	for _, a := range allAssays() {
		if !seen[a.target] {
			seen[a.target] = true
			out = append(out, a.target)
		}
	}
	return out
}

// ProbesFor returns the registered probe names for a target.
func ProbesFor(target string) []string {
	var out []string
	for _, a := range allAssays() {
		if a.target == target {
			out = append(out, a.probe)
		}
	}
	return out
}

type assayInfo struct{ target, probe string }

func allAssays() []assayInfo {
	var out []assayInfo
	for _, a := range enzymeAllAssays() {
		out = append(out, assayInfo{target: a.Target.Name, probe: a.Probe})
	}
	return out
}

// enzymeAllAssays is a thin indirection so helpers.go keeps a single
// import site for the enzyme registry.
func enzymeAllAssays() []enzyme.Assay { return enzyme.AllAssays() }
