package experiments

import (
	"fmt"

	"advdiag"
	"advdiag/internal/analog"
	"advdiag/internal/cell"
	"advdiag/internal/electrode"
	"advdiag/internal/enzyme"
	"advdiag/internal/mathx"
	"advdiag/internal/measure"
	"advdiag/internal/netlist"
	"advdiag/internal/phys"
)

// Fig1 exercises the paper's Fig. 1 block: a potentiostat holding the
// cell potential while a transimpedance amplifier converts the working-
// electrode current. Reports control accuracy and readout linearity.
func Fig1() (*Result, error) {
	res := &Result{ID: "E4", Title: "Fig. 1 — potentiostat and transimpedance readout"}

	pstat := analog.DefaultPotentiostat()
	worst := 0.0
	for mv := -750.0; mv <= 700; mv += 50 {
		e := pstat.ControlError(phys.MilliVolts(mv))
		if e.MilliVolts() > worst {
			worst = e.MilliVolts()
		}
	}
	res.Rows = append(res.Rows, Row{
		Label:    "potentiostat control error over −750…+700 mV",
		Paper:    "keeps RE/WE at the programmed potential",
		Measured: fmt.Sprintf("worst-case %.2f mV", worst),
	})
	res.metric("control_error_mV", worst)

	// TIA linearity: sweep −8…+8 µA through the ±10 µA readout and fit.
	tia := analog.NewOxidaseTIA()
	tia.Reset(0)
	var xs, ys []float64
	for ua := -8.0; ua <= 8.0; ua += 0.5 {
		xs = append(xs, ua)
		tia.Reset(0)
		ys = append(ys, float64(tia.Convert(phys.MicroAmps(ua))))
	}
	fit, err := mathx.FitLinear(xs, ys)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, Row{
		Label:    "TIA transfer (±10 µA class)",
		Paper:    "V = −I·Rf",
		Measured: fmt.Sprintf("slope %.4g V/µA, R²=%.6f", fit.Slope, fit.R2),
	})
	res.metric("tia_r2", fit.R2)

	// The structural diagram itself.
	d := netlist.New("fig1-potentiostat-tia")
	for _, blk := range []struct {
		name  string
		kind  netlist.BlockKind
		label string
	}{
		{"vgen", netlist.VoltageGenerator, "fixed/sweep"},
		{"pstat", netlist.Potentiostat, "control loop"},
		{"WE", netlist.WorkingElectrode, "functionalized"},
		{"RE", netlist.ReferenceElectrode, "Ag/AgCl"},
		{"CE", netlist.CounterElectrode, "Au"},
		{"tia", netlist.Readout, "transimpedance"},
		{"adc", netlist.ADC, "12-bit"},
		{"ctrl", netlist.Controller, ""},
	} {
		if err := d.AddBlock(blk.name, blk.kind, blk.label); err != nil {
			return nil, err
		}
	}
	for _, c := range [][]string{
		{"n_set", "vgen.out", "pstat.set"},
		{"n_re", "pstat.re", "RE.pin"},
		{"n_ce", "pstat.ce", "CE.pin"},
		{"n_we", "WE.pin", "tia.in"},
		{"n_out", "tia.out", "adc.in"},
		{"n_data", "adc.out", "ctrl.data"},
		{"n_prog", "ctrl.wave", "vgen.prog"},
	} {
		if err := d.Connect(c[0], c[1:]...); err != nil {
			return nil, err
		}
	}
	if err := d.Check(); err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, Row{
		Label:    "block diagram",
		Paper:    "potentiostat + TIA (Fig. 1)",
		Measured: fmt.Sprintf("%d blocks, %d nets, design rules pass", len(d.Blocks()), len(d.Nets())),
	})
	return res, nil
}

// Fig2 reproduces the Fig. 2 building-block diagram by synthesizing a
// two-target platform and running one acquisition through its full
// chain (vgen → potentiostat → cell → mux → readout → ADC).
func Fig2() (*Result, error) {
	res := &Result{ID: "E5", Title: "Fig. 2 — biosensing platform building blocks"}
	// One explorer worker: the experiment runner's pool already
	// saturates the CPUs, so a nested fan-out only adds contention.
	p, err := advdiag.DesignPlatform([]string{"glucose", "benzphetamine"},
		advdiag.WithPlatformSeed(3), advdiag.WithExploreWorkers(1))
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, Row{
		Label:    "synthesized blocks",
		Paper:    "vgen, potentiostat, electrodes, mux, readout, ADC, control",
		Measured: p.CostSummary(),
	})
	panel, err := p.RunPanel(map[string]float64{"glucose": 2, "benzphetamine": 0.8})
	if err != nil {
		return nil, err
	}
	for _, r := range panel.Readings {
		res.Rows = append(res.Rows, Row{
			Label:    "panel " + r.Target,
			Paper:    fmt.Sprintf("true %.3g mM", r.TrueMM),
			Measured: fmt.Sprintf("%.3g mM (%.4g µA)", r.EstimatedMM, r.MeasuredMicroAmps),
		})
		res.metric("reading_"+r.Target+"_mM", r.EstimatedMM)
	}
	return res, nil
}

// Fig3 reproduces the glucose time-response figure: injection into the
// chamber, ~30 s to steady state.
func Fig3() (*Result, error) {
	res := &Result{ID: "E6", Title: "Fig. 3 — glucose biosensor time response"}
	s, err := advdiag.NewSensor("glucose", advdiag.WithSeed(5))
	if err != nil {
		return nil, err
	}
	mon, err := s.Monitor(150, advdiag.InjectionEvent{AtSeconds: 10, DeltaMM: 2})
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, Row{
		Label:    "steady-state response time (t90)",
		Paper:    "≈30 s to steady state after injection",
		Measured: fmt.Sprintf("%.1f s (settled=%v)", mon.T90Seconds, mon.Settled),
	})
	res.Rows = append(res.Rows, Row{
		Label:    "signal step",
		Paper:    "current rises to a plateau",
		Measured: fmt.Sprintf("%.4g → %.4g µA", mon.BaselineMicroAmps, mon.SteadyMicroAmps),
	})
	res.metric("t90_s", mon.T90Seconds)
	res.metric("steady_uA", mon.SteadyMicroAmps)
	// A coarse rendition of the curve for the report.
	for _, tq := range []float64{5, 15, 25, 40, 70, 120} {
		i := int(tq / (mon.TimesSeconds[1] - mon.TimesSeconds[0]))
		if i < len(mon.CurrentsMicroAmps) {
			res.Notes = append(res.Notes, fmt.Sprintf("I(%3.0f s) = %7.4f µA", tq, mon.CurrentsMicroAmps[i]))
		}
	}
	return res, nil
}

// Fig4 reproduces the five-electrode multi-panel demonstrator: design
// the platform for the paper's six targets, verify the structure, run a
// full multiplexed panel.
func Fig4() (*Result, error) {
	res := &Result{ID: "E7", Title: "Fig. 4 — five-WE multi-panel platform"}
	targets := []string{"glucose", "lactate", "glutamate", "benzphetamine", "aminopyrine", "cholesterol"}
	p, err := advdiag.DesignPlatform(targets,
		advdiag.WithPlatformSeed(9), advdiag.WithExploreWorkers(1))
	if err != nil {
		return nil, err
	}
	wes := p.WorkingElectrodes()
	res.Rows = append(res.Rows, Row{
		Label:    "bio-interface",
		Paper:    "5 working electrodes + shared RE/CE, multiplexed",
		Measured: fmt.Sprintf("%d WEs (%v), %s", len(wes), wes, p.CostSummary()),
	})
	res.metric("WEs", float64(len(wes)))
	sample := map[string]float64{
		"glucose": 2, "lactate": 1, "glutamate": 1,
		"benzphetamine": 0.8, "aminopyrine": 4, "cholesterol": 0.05,
	}
	panel, err := p.RunPanel(sample)
	if err != nil {
		return nil, err
	}
	for _, r := range panel.Readings {
		measured := fmt.Sprintf("%.3g mM via %s on %s", r.EstimatedMM, r.Probe, r.WE)
		if r.PeakMV != 0 {
			measured += fmt.Sprintf(" [peak %+.0f mV]", r.PeakMV)
		}
		res.Rows = append(res.Rows, Row{
			Label:    r.Target,
			Paper:    fmt.Sprintf("true %.3g mM", r.TrueMM),
			Measured: measured,
		})
		if r.TrueMM > 0 {
			res.metric(r.Target+"_rel_err", abs(r.EstimatedMM-r.TrueMM)/r.TrueMM)
		}
	}
	res.Notes = append(res.Notes,
		"benzphetamine and aminopyrine share the CYP2B4 electrode; heights separated by template decomposition")
	return res, nil
}

// ReadoutRequirements (E8) recomputes the paper's §II-C readout classes
// from simulated currents at the cited-literature electrode area
// (0.25 cm²) and at the platform's 0.23 mm² electrodes.
func ReadoutRequirements() (*Result, error) {
	res := &Result{ID: "E8", Title: "§II-C readout requirements (range / resolution)"}
	type probeCase struct {
		label string
		maxI  func(area phys.Area) float64
		res   func(area phys.Area) float64
		paper string
	}
	ox, err := enzyme.OxidaseByName("glucose oxidase")
	if err != nil {
		return nil, err
	}
	cyp, err := enzyme.CYPByIsoform("CYP2B4")
	if err != nil {
		return nil, err
	}
	bz, err := cyp.Find("benzphetamine")
	if err != nil {
		return nil, err
	}
	cases := []probeCase{
		{
			label: "oxidase channel (glucose)",
			maxI: func(a phys.Area) float64 {
				return ox.CurrentDensity(ox.Perf.LinearHi, ox.Applied, enzyme.CNTGain) * float64(a)
			},
			res: func(a phys.Area) float64 {
				return float64(ox.SensitivityAt(ox.Applied, enzyme.CNTGain)) * float64(a) * float64(ox.Perf.LOD) / 3
			},
			paper: "±10 µA range, 10 nA resolution",
		},
		{
			label: "CYP channel (benzphetamine)",
			maxI: func(a phys.Area) float64 {
				s := float64(bz.PeakSensitivityAt(phys.MilliVoltsPerSecond(20), 1)) * float64(a)
				return s * float64(bz.EffectiveConcentration(bz.Perf.LinearHi))
			},
			res: func(a phys.Area) float64 {
				return float64(bz.PeakSensitivityAt(phys.MilliVoltsPerSecond(20), 1)) * float64(a) * float64(bz.Perf.LOD) / 3
			},
			paper: "±100 µA range, 100 nA resolution",
		},
	}
	areas := []struct {
		name string
		a    phys.Area
	}{
		{"cited-electrode scale (0.05 cm²)", phys.SquareCentimetres(0.05)},
		{"platform area (0.23 mm²)", electrode.ReferenceArea},
	}
	for _, pc := range cases {
		for _, ar := range areas {
			maxI := phys.Current(pc.maxI(ar.a))
			resReq := phys.Current(pc.res(ar.a))
			measured := "no catalog class fits"
			// Inline readout selection mirroring the explorer's rule.
			if rc, err := selectReadout(maxI, resReq); err == nil {
				measured = fmt.Sprintf("%s (need ±%v at %v)", rc, maxI, resReq)
			}
			res.Rows = append(res.Rows, Row{
				Label:    pc.label + " @ " + ar.name,
				Paper:    pc.paper,
				Measured: measured,
			})
		}
	}
	res.Notes = append(res.Notes,
		"the paper's ±10 µA oxidase class is exactly what the cited-scale electrodes need;",
		"its ±100 µA CYP class is generous headroom — the µA-scale catalytic currents let the catalog pick tighter classes;",
		"the 0.23 mm² platform electrodes carry ~100× smaller currents and always select the high-gain classes")
	return res, nil
}

// NoiseAblation (E9) isolates the §II-C noise techniques: the channel's
// input-referred noise floor with and without chopper stabilization,
// the system-level glucose LOD (sensor-background-limited), and the
// offset removal of correlated double sampling.
func NoiseAblation() (*Result, error) {
	res := &Result{ID: "E9", Title: "§II-C noise techniques — ablation"}

	// Electronics-only noise floor: digitize a zero-current input.
	chainFloor := func(chopper bool) float64 {
		rng := mathx.NewRNG(13)
		ch := analog.NewOxidaseChain(nil, rng)
		ch.Noise.EnableChopper(chopper)
		ch.Reset(0.1)
		const n = 4000
		zeros, rec, cur := make([]float64, n), make([]float64, n), make([]float64, n)
		ch.DigitizeRun(zeros, rec, cur)
		return mathx.StdDev(cur)
	}
	floorPlain := chainFloor(false)
	floorChop := chainFloor(true)
	res.Rows = append(res.Rows, Row{
		Label:    "readout noise floor (±10 µA class)",
		Paper:    "flicker (1/f) dominates the low-frequency band",
		Measured: fmt.Sprintf("%.3g nA RMS plain → %.3g nA RMS chopped (×%.1f)", floorPlain*1e9, floorChop*1e9, floorPlain/floorChop),
	})
	res.metric("floor_plain_nA", floorPlain*1e9)
	res.metric("floor_chopped_nA", floorChop*1e9)

	// System-level LOD: sensor background dominates, so chopping barely
	// moves the glucose LOD — readout noise is already below the blank.
	grid := seq(0.25, 6.0, 0.25)
	plain, err := advdiag.NewSensor("glucose", advdiag.WithSeed(13))
	if err != nil {
		return nil, err
	}
	repPlain, err := plain.Calibrate(grid)
	if err != nil {
		return nil, err
	}
	chop, err := advdiag.NewSensor("glucose", advdiag.WithSeed(13), advdiag.WithChopper())
	if err != nil {
		return nil, err
	}
	repChop, err := chop.Calibrate(grid)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, Row{
		Label:    "glucose LOD plain vs chopped",
		Paper:    "amplifier noise must be negligible vs the sensor",
		Measured: fmt.Sprintf("%.3g µM vs %.3g µM (sensor-background-limited)", repPlain.LODMicroMolar, repChop.LODMicroMolar),
	})
	res.metric("lod_plain_uM", repPlain.LODMicroMolar)
	res.metric("lod_chopper_uM", repChop.LODMicroMolar)

	// CDS: measure the drift/offset removal on a raw trace pair.
	a := enzyme.AssaysFor("glucose")[0]
	we := electrode.NewWorking("WE1", electrode.CNT, a)
	blank := electrode.NewBlankWorking("WEB")
	sol := cell.NewSolution().Set("glucose", phys.MilliMolar(1))
	c := cell.NewSingleChamber(sol, we, blank, electrode.NewReference("RE1"), electrode.NewCounter("CE1"))
	eng, err := measure.NewEngine(c, 17)
	if err != nil {
		return nil, err
	}
	mk := func() *analog.Chain {
		ch := analog.NewOxidaseChain(nil, eng.RNG())
		ch.Readout.OutputOffset = phys.MilliVolts(3) // correlated offset/drift
		return ch
	}
	sig, err := eng.RunCA("WE1", mk(), measure.Chronoamperometry{Duration: 60})
	if err != nil {
		return nil, err
	}
	bl, err := eng.RunCA("WEB", mk(), measure.Chronoamperometry{Potential: a.Oxidase.Applied, Duration: 60})
	if err != nil {
		return nil, err
	}
	cds, err := measure.ApplyCDS(sig.Recorded, bl.Recorded)
	if err != nil {
		return nil, err
	}
	rawOffset := mathx.Mean(bl.Recorded.Tail(0.2))
	residual := mathx.Mean(cds.Tail(0.2)) - mathx.Mean(sig.Recorded.Tail(0.2)) + rawOffset
	res.Rows = append(res.Rows, Row{
		Label:    "correlated double sampling",
		Paper:    "subtracting the enzyme-free WE removes correlated background",
		Measured: fmt.Sprintf("3 mV injected offset → %.3g mV residual after CDS", residual*1e3),
	})
	res.metric("cds_residual_mV", residual*1e3)
	return res, nil
}
