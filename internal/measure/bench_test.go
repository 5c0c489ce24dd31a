package measure

import (
	"testing"

	"advdiag/internal/analog"
	"advdiag/internal/cell"
	"advdiag/internal/electrode"
	"advdiag/internal/enzyme"
	"advdiag/internal/phys"
)

// BenchmarkRunCA times one chronoamperometric run in the Fig. 4 shape:
// three co-chambered oxidase electrodes (so two cross-talk sources), a
// 90 s run with a 15 s buffer baseline at the 0.1 s default sampling,
// trace buffers recycled through an Arena as the panel path does.
func BenchmarkRunCA(b *testing.B) {
	var els []*electrode.Electrode
	for _, target := range []string{"glucose", "lactate", "glutamate"} {
		els = append(els, electrode.NewWorking(target, electrode.CNT, assayFor(b, target, enzyme.Chronoamperometry)))
	}
	els = append(els, electrode.NewReference("RE1"), electrode.NewCounter("CE1"))
	sol := cell.NewSolution().
		Set("glucose", phys.MilliMolar(2)).
		Set("lactate", phys.MilliMolar(1)).
		Set("glutamate", phys.MilliMolar(1))
	eng, err := NewEngine(cell.NewSingleChamber(sol, els...), 1)
	if err != nil {
		b.Fatal(err)
	}
	arena := &Arena{}
	eng.SetArena(arena)
	chain := analog.NewOxidaseChain(nil, eng.RNG())
	proto := Chronoamperometry{Duration: 90, BaselinePhase: 15}
	b.ReportAllocs()
	for b.Loop() {
		arena.Reset()
		if _, err := eng.RunCA("glucose", chain, proto); err != nil {
			b.Fatal(err)
		}
	}
}
