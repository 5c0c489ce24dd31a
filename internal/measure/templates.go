package measure

import (
	"fmt"
	"math"

	"advdiag/internal/analog"
	"advdiag/internal/diffusion"
	"advdiag/internal/enzyme"
	"advdiag/internal/phys"
	"advdiag/internal/trace"
)

// finalCycleFirstIndex returns the first sample index of the final full
// sweep cycle. RunCV's voltammogram and the fitting templates must
// agree on this boundary sample-for-sample (analysis.FitPlan aligns
// them by position), so both use this one definition.
func finalCycleFirstIndex(n int, dt, cycleStart float64) int {
	for i := 0; i < n; i++ {
		if float64(i)*dt >= cycleStart {
			return i
		}
	}
	return n
}

// CVBasis holds the unit-concentration surface-flux traces of every
// binding of one voltammetric electrode over a full protocol: the
// expensive diffusion simulations, run once. Because the diffusion
// problem is linear in bulk concentration, the faradaic current of a
// binding at effective concentration C_eff is exactly C_eff times its
// unit trace — which is how RunCVWithBasis serves per-sample
// voltammograms without touching the solver.
//
// The flux depends on the electrode only through its isoform's
// bindings, so one basis serves every electrode carrying that isoform:
// the replicas of a sensor array share their construction's basis.
//
// A basis is immutable after construction and safe for any number of
// concurrent readers; the serving layer computes one per electrode
// construction and shares it across panel workers.
type CVBasis struct {
	we    string      // the electrode it was computed on (error text)
	cyp   *enzyme.CYP // the isoform it simulated (nil: blank electrode)
	proto CyclicVoltammetry
	flux  map[string][]float64 // substrate → flux at every sample
	grid  *cvGrid              // the potentials that drove flux
}

// cvGrid holds the pure functions of one electrode's CV sample grid:
// the programmed and the applied potential at every sample, and every
// binding's film-background bump shape exp(−x²) over the applied
// potential. runCV reads them instead of re-deriving them per sample.
type cvGrid struct {
	// pstat is the potentiostat that produced applied from prog.
	pstat   analog.Potentiostat
	prog    []phys.Voltage
	applied []phys.Voltage
	// shapes holds one bump shape per binding of the electrode's CYP,
	// in binding order (nil for a blank electrode).
	shapes [][]float64
}

// newCVGrid evaluates the grid of n samples at interval dt, driven
// through pstat. cyp may be nil (no film bumps).
func newCVGrid(sweep analog.TriangleSweep, dt float64, n int, pstat *analog.Potentiostat, cyp *enzyme.CYP) *cvGrid {
	g := &cvGrid{pstat: *pstat, prog: make([]phys.Voltage, n), applied: make([]phys.Voltage, n)}
	for i := range g.prog {
		g.prog[i] = sweep.VoltageAt(float64(i) * dt)
		g.applied[i] = pstat.Apply(g.prog[i])
	}
	if cyp != nil {
		g.shapes = make([][]float64, len(cyp.Bindings))
		for k, b := range cyp.Bindings {
			shape := make([]float64, n)
			for i, e := range g.applied {
				x := float64(e-b.PeakPotential) / FilmBumpWidth
				shape[i] = math.Exp(-x * x)
			}
			g.shapes[k] = shape
		}
	}
	return g
}

// check verifies the basis was computed for an electrode carrying
// cyp, the isoform of the named electrode (nil when it is blank), and
// for this protocol (the numeric protocol fields; flag fields like
// NoFilmBackground do not change the flux).
func (b *CVBasis) check(weName string, cyp *enzyme.CYP, proto CyclicVoltammetry) error {
	if b.cyp != cyp {
		return fmt.Errorf("measure: basis computed for %s (%s), used on %s (%s)", b.we, isoformName(b.cyp), weName, isoformName(cyp))
	}
	p := b.proto
	if p.Start != proto.Start || p.Vertex != proto.Vertex || p.Rate != proto.Rate ||
		p.Cycles != proto.Cycles || p.SampleInterval != proto.SampleInterval {
		return fmt.Errorf("measure: basis protocol %+v does not match run protocol %+v", p, proto)
	}
	return nil
}

// isoformName names a basis' isoform in error text.
func isoformName(cyp *enzyme.CYP) string {
	if cyp == nil {
		return "blank"
	}
	return cyp.Isoform
}

// CVFluxBasis runs the unit-concentration diffusion simulation of every
// binding of the named electrode's CYP isoform over the full protocol
// and records the surface-flux traces. It is the one place a CV
// diffusion solver is built. The electrode potential driving the
// simulations is the one chain's potentiostat applies, the drive of
// every run on the basis. A blank electrode gets an empty basis: it
// has no bindings, so its runs carry no faradaic current.
func (e *Engine) CVFluxBasis(weName string, proto CyclicVoltammetry, chain *analog.Chain) (*CVBasis, error) {
	if chain == nil || chain.Pstat == nil {
		return nil, fmt.Errorf("measure: CVFluxBasis for %s needs a chain with a potentiostat", weName)
	}
	proto = proto.WithDefaults()
	if err := proto.Validate(); err != nil {
		return nil, err
	}
	we, err := e.Cell.FindWE(weName)
	if err != nil {
		return nil, err
	}
	var cyp *enzyme.CYP
	var bindings []*enzyme.Binding
	if !we.Func.IsBlank() {
		if we.Func.Assay.Technique != enzyme.CyclicVoltammetry {
			return nil, fmt.Errorf("measure: %s is not a voltammetric electrode", weName)
		}
		cyp = we.Func.Assay.CYP
		bindings = cyp.Bindings
	}

	sweep := analog.TriangleSweep{Start: proto.Start, Vertex: proto.Vertex, Rate: proto.Rate, Cycles: proto.Cycles}
	if err := sweep.Validate(); err != nil {
		return nil, err
	}
	dt := proto.SampleInterval
	total := sweep.Duration()
	n := int(total/dt) + 1

	grid := newCVGrid(sweep, dt, n, chain.Pstat, cyp)
	basis := &CVBasis{we: weName, cyp: cyp, proto: proto, flux: make(map[string][]float64, len(bindings)), grid: grid}
	for _, b := range bindings {
		sim, err := diffusion.New(diffusion.Config{
			Kinetics:  b.Kinetics(),
			Diffusion: b.Substrate.Diffusion,
			BulkO:     1, // unit concentration
			TotalTime: total,
			Dt:        dt,
		})
		if err != nil {
			return nil, fmt.Errorf("measure: basis for %s: %w", b.Substrate.Name, err)
		}
		tr := make([]float64, n)
		for i, e := range grid.applied {
			tr[i] = sim.Step(e)
		}
		basis.flux[b.Substrate.Name] = tr
	}
	return basis, nil
}

// CVTemplatesFromBasis derives the noise-free unit-concentration
// voltammetric responses of every binding of the basis' electrode over
// the final-cycle grid RunCV's Voltammogram uses, without re-running
// any diffusion simulation.
//
// Because the diffusion problem is linear in the bulk concentration,
// the faradaic current of binding b at effective concentration C_eff is
// exactly C_eff times its unit template. Least-squares fitting of the
// templates (analysis.FitPlan) therefore recovers each substrate's
// effective concentration even when a small peak rides on a larger
// neighbouring wave as a mere shoulder — the situation of the CYP2B4
// benzphetamine + aminopyrine electrode. runtime.NewCVCalib gets both
// the run-time basis and the fitting templates from one set of
// simulations this way.
func (e *Engine) CVTemplatesFromBasis(basis *CVBasis) (*trace.XY, map[string][]float64, error) {
	we, err := e.Cell.FindWE(basis.we)
	if err != nil {
		return nil, nil, err
	}
	if we.Func.IsBlank() || we.Func.Assay.Technique != enzyme.CyclicVoltammetry {
		return nil, nil, fmt.Errorf("measure: %s is not a voltammetric electrode", basis.we)
	}
	cyp := we.Func.Assay.CYP
	proto := basis.proto

	sweep := analog.TriangleSweep{Start: proto.Start, Vertex: proto.Vertex, Rate: proto.Rate, Cycles: proto.Cycles}
	if err := sweep.Validate(); err != nil {
		return nil, nil, err
	}
	dt := proto.SampleInterval
	total := sweep.Duration()
	n := int(total/dt) + 1
	first := finalCycleFirstIndex(n, dt, total-2*sweep.HalfPeriod())
	gain := we.Gain()

	grid := trace.NewXY("V", "A")
	grid.X = make([]float64, 0, n-first)
	grid.Y = make([]float64, 0, n-first)
	for _, e := range basis.grid.prog[first:n] {
		grid.Append(float64(e), 0)
	}
	templates := make(map[string][]float64, len(cyp.Bindings))
	for _, b := range cyp.Bindings {
		tr, ok := basis.flux[b.Substrate.Name]
		if !ok || len(tr) < n {
			return nil, nil, fmt.Errorf("measure: basis for %s lacks a %s trace", basis.we, b.Substrate.Name)
		}
		vals := make([]float64, 0, n-first)
		for i := first; i < n; i++ {
			vals = append(vals, b.Theta*gain*float64(diffusion.Current(b.N, we.Area, tr[i])))
		}
		templates[b.Substrate.Name] = vals
	}
	return grid, templates, nil
}
