package runtime

import (
	"fmt"
	"sort"

	"advdiag/internal/analog"
	"advdiag/internal/analysis"
	"advdiag/internal/cell"
	"advdiag/internal/core"
	"advdiag/internal/enzyme"
	"advdiag/internal/measure"
	"advdiag/internal/phys"
)

// panelScratch is the reusable per-goroutine state of a panel run: the
// instantiated cell with its per-chamber solutions, the measurement
// engine, one acquisition chain per electrode, the trace arena, and
// the fit/peak scratch buffers. Everything in it is rebuilt — not
// carried over — on every run (solutions reset and refilled, the
// engine reseeded, chains rebound with replayed RNG draws, traces
// fully overwritten), so a run on a tenth-hand scratch is bit-identical
// to a run on a fresh one; the scratch only recycles the allocations.
//
// Scratches live in the Executor's sync.Pool: sequential runs on one
// goroutine keep hitting the same warm scratch, and concurrent workers
// each hold their own.
type panelScratch struct {
	names  []string
	solMap map[string]*cell.Solution
	c      *cell.Cell
	eng    *measure.Engine
	chains map[string]*analog.Chain
	arena  measure.Arena

	fit      analysis.FitScratch
	peaks    analysis.PeakScratch
	readings []Reading

	// Per-sample shared faradaic traces, keyed by calibration entry:
	// replicated electrode constructions reuse one flux-basis scaling
	// pass per sample (see measure.CVFaradaicSum).
	farKeys []*weCalib
	farVecs [][]float64
	farN    int
}

// faradaicFor returns the sample's summed faradaic trace for the
// electrode's construction, computing it on first use per sample and
// sharing it across replicas of the same calibration entry.
func (s *panelScratch) faradaicFor(eng *measure.Engine, weName string, cal *weCalib) ([]float64, error) {
	for i := 0; i < s.farN; i++ {
		if s.farKeys[i] == cal {
			return s.farVecs[i], nil
		}
	}
	var buf []float64
	if s.farN < len(s.farVecs) {
		buf = s.farVecs[s.farN]
	}
	vec, err := eng.CVFaradaicSum(weName, cal.Proto, cal.Basis, buf)
	if err != nil {
		return nil, err
	}
	if s.farN < len(s.farVecs) {
		s.farVecs[s.farN] = vec
		s.farKeys[s.farN] = cal
	} else {
		s.farVecs = append(s.farVecs, vec)
		s.farKeys = append(s.farKeys, cal)
	}
	s.farN++
	return vec, nil
}

// RunBatch executes many panels over one reused scratch: sample i runs
// with seeds[i], and the i-th result lands in the i-th output slot.
// Each panel is bit-identical to a standalone RunFouled(samples[i],
// seeds[i], fault) call — batching amortizes the cell instantiation,
// engine construction, chain assembly and trace allocations, never the
// noise streams. A failed sample yields a zero Panel and its error
// without disturbing its neighbours.
//
//advdiag:hotpath
func (e *Executor) RunBatch(samples []map[string]float64, seeds []uint64, fault *Fouling) ([]Panel, []error) {
	if len(samples) != len(seeds) {
		//advdiag:allow hot-fmt caller-contract panic: unreachable in a correct build, never on the panel path
		panic(fmt.Sprintf("runtime: RunBatch got %d samples but %d seeds", len(samples), len(seeds)))
	}
	panels := make([]Panel, len(samples))
	errs := make([]error, len(samples))
	s := e.getScratch()
	for i := range samples {
		panels[i], errs[i] = e.runWith(s, samples[i], seeds[i], fault)
	}
	e.putScratch(s)
	return panels, errs
}

func (e *Executor) getScratch() *panelScratch {
	if v := e.scratch.Get(); v != nil {
		return v.(*panelScratch)
	}
	return &panelScratch{}
}

func (e *Executor) putScratch(s *panelScratch) { e.scratch.Put(s) }

// runWith is the panel kernel: RunFouled's body over a reusable
// scratch. See RunFouled for the execution contract.
func (e *Executor) runWith(s *panelScratch, sample map[string]float64, seed uint64, fault *Fouling) (Panel, error) {
	if err := ValidateSample(sample); err != nil {
		return Panel{}, err
	}
	cand := e.inner.Candidate

	// Per-chamber solutions holding the full sample. The cell, its
	// solutions and the engine are built once per scratch and rebuilt
	// in place on reuse.
	s.names = s.names[:0]
	for name := range sample {
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)
	if s.c == nil {
		s.solMap = make(map[string]*cell.Solution, len(cand.Chambers))
		for _, ch := range cand.Chambers {
			s.solMap[ch] = cell.NewSolution()
		}
		c, err := e.inner.Instantiate(s.solMap)
		if err != nil {
			return Panel{}, err
		}
		eng, err := measure.NewEngine(c, seed)
		if err != nil {
			return Panel{}, err
		}
		eng.SetArena(&s.arena)
		s.c, s.eng = c, eng
	} else {
		s.eng.Reseed(seed)
	}
	for _, ch := range cand.Chambers {
		sol := s.solMap[ch]
		sol.Reset()
		for _, name := range s.names {
			sol.Set(name, phys.MilliMolar(sample[name]))
		}
	}
	eng := s.eng

	var out Panel
	out.PanelSeconds = cand.PanelTime
	table, err := e.calibration()
	if err != nil {
		return Panel{}, err
	}
	s.readings = s.readings[:0]
	s.farN = 0
	for i, ep := range cand.Electrodes {
		if ep.Blank {
			continue
		}
		cal := table[i]
		chain := s.chains[ep.Name]
		if chain == nil {
			chain, err = e.inner.ChainFor(ep.Name, eng.RNG())
			if err != nil {
				return Panel{}, err
			}
			if s.chains == nil {
				s.chains = make(map[string]*analog.Chain, len(cand.Electrodes))
			}
			s.chains[ep.Name] = chain
		} else {
			// Replays the exact RNG draws chain construction consumes,
			// so the downstream noise streams are unchanged.
			chain.Rebind(eng.RNG())
		}
		// Traces of the previous electrode were reduced to scalars;
		// recycle their buffers.
		s.arena.Reset()
		switch ep.Technique {
		case enzyme.Chronoamperometry:
			// Two-phase protocol: buffer baseline, then the sample. The
			// baseline-subtracted step cancels run offsets and direct-
			// oxidizer interferent currents.
			res, err := eng.RunCA(ep.Name, chain, measure.Chronoamperometry{
				Duration:      ep.ProtocolTime,
				BaselinePhase: core.CABaselinePhase,
			})
			if err != nil {
				return Panel{}, err
			}
			a := ep.Assays[0]
			step := res.StepCurrent()
			if fault != nil && fault.matches(a.Target.Name) {
				step = phys.Current(fault.perturb(float64(step), seed, a.Target.Name))
			}
			est := cal.invertCA(step)
			s.readings = append(s.readings, Reading{
				Target:            a.Target.Name,
				WE:                ep.Name,
				Probe:             a.Probe,
				MeasuredMicroAmps: step.MicroAmps(),
				EstimatedMM:       est.MilliMolar(),
				TrueMM:            sample[a.Target.Name],
			})
		case enzyme.CyclicVoltammetry:
			// The calibration's basis stands in for the diffusion
			// simulations; the per-sample flux scaling pass is computed
			// once per construction and shared across replicas.
			far, err := s.faradaicFor(eng, ep.Name, cal)
			if err != nil {
				return Panel{}, err
			}
			res, err := eng.RunCVShared(ep.Name, chain, cal.Proto, cal.Basis, far)
			if err != nil {
				return Panel{}, err
			}
			// Quantify against the calibration's prefactored template
			// decomposition (the same CVCalib.Plan the hand-held Sensor
			// fits with); locate the voltammogram's reduction peaks once
			// and look each assay's peak potential up among them.
			fit, err := cal.Plan.Fit(res.Voltammogram, &s.fit)
			if err != nil {
				return Panel{}, fmt.Errorf("advdiag: %s: %w", ep.Name, err)
			}
			// Peak potentials are best-effort: a branch Locate refuses
			// leaves every assay's PeakMV at 0.
			_ = s.peaks.Locate(res.Voltammogram)
			for _, a := range ep.Assays {
				b := a.Binding
				amp := fit.Amplitude(a.Target.Name)
				if fault != nil && fault.matches(a.Target.Name) {
					amp = fault.perturb(amp, seed, a.Target.Name)
				}
				height := amp * cal.UnitPeak[a.Target.Name]
				est := InvertEffective(b, amp)
				peakMV := 0.0
				if pk, ok := s.peaks.Lookup(b.PeakPotential, phys.MilliVolts(80)); ok {
					peakMV = pk.Potential.MilliVolts()
				}
				s.readings = append(s.readings, Reading{
					Target:            a.Target.Name,
					WE:                ep.Name,
					Probe:             a.Probe,
					MeasuredMicroAmps: height * 1e6,
					EstimatedMM:       est.MilliMolar(),
					TrueMM:            sample[a.Target.Name],
					PeakMV:            peakMV,
				})
			}
		}
	}
	out.Readings = MergeReplicas(s.readings)
	return out, nil
}
