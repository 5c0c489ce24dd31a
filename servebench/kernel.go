package main

import (
	"fmt"
	"runtime/metrics"
	"sort"
	"time"

	"advdiag"
	"advdiag/internal/analog"
	"advdiag/internal/analysis"
	"advdiag/internal/cell"
	"advdiag/internal/core"
	"advdiag/internal/diffusion"
	"advdiag/internal/electrode"
	"advdiag/internal/enzyme"
	"advdiag/internal/mathx"
	"advdiag/internal/measure"
	"advdiag/internal/phys"
	rt "advdiag/internal/runtime"
	"advdiag/wire"
)

// sink keeps the compiler from discarding the probed calls' results.
var sink float64

// perCall runs fn until budget has passed (at least once); fn makes
// some number of calls and returns it. The result is the mean time per
// call, in ns.
func perCall(budget time.Duration, fn func(rep int) int) float64 {
	start := time.Now()
	calls := 0
	for rep := 0; rep == 0 || time.Since(start) < budget; rep++ {
		calls += fn(rep)
	}
	return float64(time.Since(start)) / float64(max(calls, 1))
}

// allocsPerCall counts heap allocations per call over n calls of fn.
func allocsPerCall(n int, fn func(rep int) int) float64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	before := s[0].Value.Uint64()
	calls := 0
	for rep := 0; rep < n; rep++ {
		calls += fn(rep)
	}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()-before) / float64(max(calls, 1))
}

// wireRow is one codec call's cost.
type wireRow struct {
	name          string
	us, allocs    float64
	bytesPerValue float64
}

// wireProbe is the wire layer's rows, measured on a run's own samples
// and served outcomes.
type wireProbe struct {
	rows []wireRow
	n    int
}

// probeWire times the JSON and binary codecs on the given samples and
// outcomes: encode and decode, per call.
func probeWire(samples []advdiag.Sample, outs []advdiag.PanelOutcome, budget time.Duration) (wireProbe, error) {
	n := len(samples)
	if n == 0 {
		return wireProbe{}, fmt.Errorf("wire probe: no served outcomes to encode")
	}
	ws := make([]wire.Sample, n)
	wo := make([]wire.Outcome, n)
	for i := range samples {
		ws[i] = wire.Sample{Schema: wire.SchemaVersion, ID: samples[i].ID, Concentrations: samples[i].Concentrations}
		wo[i] = toWireOutcome(outs[i])
	}
	encode := map[string]func(i int) ([]byte, error){
		"json.sample":  func(i int) ([]byte, error) { return wire.MarshalSample(ws[i]) },
		"json.outcome": func(i int) ([]byte, error) { return wire.MarshalOutcome(wo[i]) },
		"bin.sample":   func(i int) ([]byte, error) { return wire.MarshalSampleBinary(ws[i]) },
		"bin.outcome":  func(i int) ([]byte, error) { return wire.MarshalOutcomeBinary(wo[i]) },
	}
	decode := map[string]func(b []byte) error{
		"json.sample":  func(b []byte) error { _, err := wire.UnmarshalSample(b); return err },
		"json.outcome": func(b []byte) error { _, err := wire.UnmarshalOutcome(b); return err },
		"bin.sample":   func(b []byte) error { _, err := wire.UnmarshalSampleBinary(b); return err },
		"bin.outcome":  func(b []byte) error { _, err := wire.UnmarshalOutcomeBinary(b); return err },
	}
	wp := wireProbe{n: n}
	for _, kind := range []string{"json.sample", "json.outcome", "bin.sample", "bin.outcome"} {
		enc, dec := encode[kind], decode[kind]
		frames := make([][]byte, n)
		size := 0
		for i := range frames {
			b, err := enc(i)
			if err != nil {
				return wireProbe{}, fmt.Errorf("wire probe: %s encode: %w", kind, err)
			}
			if err := dec(b); err != nil {
				return wireProbe{}, fmt.Errorf("wire probe: %s decode: %w", kind, err)
			}
			frames[i], size = b, size+len(b)
		}
		var err error
		encCall := func(rep int) int {
			var b []byte
			b, err = enc(rep % n)
			sink += float64(len(b))
			return 1
		}
		decCall := func(rep int) int {
			if e := dec(frames[rep%n]); e != nil {
				err = e
			}
			return 1
		}
		wp.rows = append(wp.rows,
			wireRow{name: kind + "_enc", us: perCall(budget, encCall) / 1e3, allocs: allocsPerCall(4*n, encCall), bytesPerValue: float64(size) / float64(n)},
			wireRow{name: kind + "_dec", us: perCall(budget, decCall) / 1e3, allocs: allocsPerCall(4*n, decCall), bytesPerValue: float64(size) / float64(n)})
		if err != nil {
			return wireProbe{}, fmt.Errorf("wire probe: %s: %w", kind, err)
		}
	}
	return wp, nil
}

// toWireOutcome mirrors the server's rendering of an outcome.
func toWireOutcome(o advdiag.PanelOutcome) wire.Outcome {
	res := wire.PanelResult{Schema: wire.SchemaVersion, PanelSeconds: o.Result.PanelSeconds}
	for _, r := range o.Result.Readings {
		res.Readings = append(res.Readings, wire.Reading(r))
	}
	return wire.Outcome{Schema: wire.SchemaVersion, Index: o.Index, ID: o.ID, Shard: o.Shard, Result: &res,
		ScheduledStartSeconds: o.ScheduledStartSeconds, WallSeconds: o.WallSeconds}
}

func (wp wireProbe) fill(L map[string]float64) {
	for _, r := range wp.rows {
		L["wire."+r.name+"_us"] = r.us
	}
}

func (wp wireProbe) lines() []string {
	out := []string{fmt.Sprintf("wire probe (%d served samples and outcomes, per call):", wp.n)}
	for _, r := range wp.rows {
		out = append(out, fmt.Sprintf("  wire.%-18s %8.3f us %6.1f allocs %6.0f bytes", r.name, r.us, r.allocs, r.bytesPerValue))
	}
	return out
}

// designInner repeats DesignPlatform's exploration and synthesis to
// reach the layers below the public Platform, which keeps them
// unexported. Same targets and options give the same design.
func designInner(targets []string) (*core.Platform, error) {
	var req core.Requirements
	for _, t := range targets {
		req.Targets = append(req.Targets, core.TargetSpec{Species: t})
	}
	best, err := core.BestWith(req, core.ExploreOptions{})
	if err != nil {
		return nil, err
	}
	return core.Synthesize(best)
}

// kernelProbe is the kernel layers' per-call costs on one platform and
// the call counts that make up one operation (a panel or a tick).
type kernelProbe struct {
	what string
	// Electrode runs per operation and their mean cost per call.
	nCA, nCV          int
	caUS, cvUS, fitUS float64
	stepNS            float64 // diffusion.CoupleSim.Step; 0 without CV
	// Digitize calls per operation, split by technique, and per-call
	// costs of Digitize, the noise model inside it, and one normal draw.
	digCA, digCV           int
	digNS, noiseNS, normNS float64
	digCAUS, digCVUS       float64 // Digitize time inside CA and CV runs, per op
	noiseUS                float64 // noise time inside Digitize, per op
	runUS, runBatchUS      float64
	allocsPerPanel         float64
	monitorUS              float64
}

// normsPerSample is the normal draws behind one acquired sample: the
// engine's blank-noise draw plus the chain's white and flicker draws.
const normsPerSample = 3

// digitize times the chain's Digitize and its noise model over one
// run's own cell currents, accumulating per-operation totals.
func (k *kernelProbe) digitize(chain *analog.Chain, raw []float64, dt float64, cv bool, budget time.Duration) {
	chain.Reset(dt)
	d := perCall(budget, func(int) int {
		for _, v := range raw {
			sink += float64(chain.Digitize(phys.Current(v)))
		}
		return len(raw)
	})
	nz := 0.0
	if chain.Noise != nil {
		nz = perCall(budget, func(int) int {
			for range raw {
				sink += chain.Noise.Sample()
			}
			return len(raw)
		})
	}
	n := float64(len(raw))
	if cv {
		k.digCV += len(raw)
		k.digCVUS += d * n / 1e3
	} else {
		k.digCA += len(raw)
		k.digCAUS += d * n / 1e3
	}
	k.noiseUS += nz * n / 1e3
}

// finish derives the per-call digitize and noise figures and times one
// normal draw.
func (k *kernelProbe) finish(budget time.Duration) {
	if n := float64(k.digCA + k.digCV); n > 0 {
		k.digNS = (k.digCAUS + k.digCVUS) * 1e3 / n
		k.noiseNS = k.noiseUS * 1e3 / n
	}
	rng := mathx.NewRNG(platformSeed)
	k.normNS = perCall(budget, func(int) int {
		for i := 0; i < 4096; i++ {
			sink += rng.Norm()
		}
		return 4096
	})
}

// probePanelKernels measures the runtime and kernel rows of a panel
// workload on its own platform design and generated samples.
func probePanelKernels(targets []string, pool []map[string]float64, budget time.Duration) (*kernelProbe, error) {
	inner, err := designInner(targets)
	if err != nil {
		return nil, err
	}
	ex := rt.NewExecutor(inner, platformSeed)
	if err := ex.Warm(); err != nil {
		return nil, err
	}
	k := &kernelProbe{what: fmt.Sprintf("%d-target platform %v", len(targets), targets)}
	samples := pool[:min(64, len(pool))]

	var runErr error
	k.runUS = perCall(budget, func(rep int) int {
		p, err := ex.Run(samples[rep%len(samples)], rt.SampleSeed(platformSeed, rep))
		if err != nil {
			runErr = err
		}
		sink += float64(len(p.Readings))
		return 1
	}) / 1e3
	batch := make([]map[string]float64, batchSize)
	seeds := make([]uint64, batchSize)
	runBatch := func(rep int) int {
		for j := range batch {
			batch[j] = samples[(rep*batchSize+j)%len(samples)]
			seeds[j] = rt.SampleSeed(platformSeed, rep*batchSize+j)
		}
		_, errs := ex.RunBatch(batch, seeds, nil)
		for _, e := range errs {
			if e != nil {
				runErr = e
			}
		}
		return batchSize
	}
	k.runBatchUS = perCall(budget, runBatch) / 1e3
	k.allocsPerPanel = allocsPerCall(8, runBatch)
	if runErr != nil {
		return nil, fmt.Errorf("executor: %w", runErr)
	}

	// One cell holding the first sample, one engine, and each working
	// electrode's own chain, as a panel run builds them.
	sample := samples[0]
	names := make([]string, 0, len(sample))
	for n := range sample {
		names = append(names, n)
	}
	sort.Strings(names)
	sols := make(map[string]*cell.Solution, len(inner.Candidate.Chambers))
	for _, ch := range inner.Candidate.Chambers {
		sol := cell.NewSolution()
		for _, n := range names {
			sol.Set(n, phys.MilliMolar(sample[n]))
		}
		sols[ch] = sol
	}
	c, err := inner.Instantiate(sols)
	if err != nil {
		return nil, err
	}
	eng, err := measure.NewEngine(c, platformSeed)
	if err != nil {
		return nil, err
	}
	var arena measure.Arena
	eng.SetArena(&arena)
	var caTotal, cvTotal, fitTotal, steps float64
	nSteps := 0
	for _, ep := range inner.Candidate.Electrodes {
		if ep.Blank {
			continue
		}
		chain, err := inner.ChainFor(ep.Name, eng.RNG())
		if err != nil {
			return nil, err
		}
		reseed := func(rep int) {
			arena.Reset()
			eng.Reseed(rt.SampleSeed(platformSeed, rep))
			chain.Rebind(eng.RNG())
		}
		switch ep.Technique {
		case enzyme.Chronoamperometry:
			proto := measure.Chronoamperometry{Duration: ep.ProtocolTime, BaselinePhase: core.CABaselinePhase}
			var res *measure.CAResult
			caTotal += perCall(budget, func(rep int) int {
				reseed(rep)
				res, err = eng.RunCA(ep.Name, chain, proto)
				return 1
			})
			if err != nil {
				return nil, fmt.Errorf("RunCA %s: %w", ep.Name, err)
			}
			k.nCA++
			raw := append([]float64(nil), res.Raw.Values...)
			k.digitize(chain, raw, res.Raw.Dt, false, budget/4)
		case enzyme.CyclicVoltammetry:
			proto, basis, plan, err := cvCalibration(inner, ep)
			if err != nil {
				return nil, fmt.Errorf("CV calibration %s: %w", ep.Name, err)
			}
			var res *measure.CVResult
			cvTotal += perCall(budget, func(rep int) int {
				reseed(rep)
				res, err = eng.RunCVWithBasis(ep.Name, chain, proto, basis)
				return 1
			})
			if err != nil {
				return nil, fmt.Errorf("RunCVWithBasis %s: %w", ep.Name, err)
			}
			k.nCV++
			var fs analysis.FitScratch
			fitTotal += perCall(budget, func(int) int {
				var fit analysis.PlanFit
				fit, err = plan.Fit(res.Voltammogram, &fs)
				sink += fit.Amplitude(ep.Assays[0].Target.Name)
				return 1
			})
			if err != nil {
				return nil, fmt.Errorf("fit %s: %w", ep.Name, err)
			}
			raw := append([]float64(nil), res.Raw.Values...)
			pots := append([]float64(nil), res.Potential.Values...)
			st, err := diffusionStep(ep.Assays[0].CYP, sample, pots, res.Raw.Dt, budget/4)
			if err != nil {
				return nil, err
			}
			if st > 0 {
				steps += st
				nSteps++
			}
			k.digitize(chain, raw, res.Raw.Dt, true, budget/4)
		}
	}
	if k.nCA > 0 {
		k.caUS = caTotal / float64(k.nCA) / 1e3
	}
	if k.nCV > 0 {
		k.cvUS = cvTotal / float64(k.nCV) / 1e3
		k.fitUS = fitTotal / float64(k.nCV) / 1e3
	}
	if nSteps > 0 {
		k.stepNS = steps / float64(nSteps)
	}
	k.finish(budget / 4)
	return k, nil
}

// cvCalibration derives a CV electrode's protocol, flux basis and fit
// plan exactly as the runtime's calibration cache does.
func cvCalibration(inner *core.Platform, ep core.ElectrodePlan) (measure.CyclicVoltammetry, *measure.CVBasis, *analysis.FitPlan, error) {
	var peaks []phys.Voltage
	for _, a := range ep.Assays {
		peaks = append(peaks, a.Binding.PeakPotential)
	}
	start, vertex := measure.CVWindowFor(peaks...)
	proto := measure.CyclicVoltammetry{Start: start, Vertex: vertex}
	blank, err := inner.Instantiate(nil)
	if err != nil {
		return proto, nil, nil, err
	}
	eng, err := measure.NewEngine(blank, platformSeed)
	if err != nil {
		return proto, nil, nil, err
	}
	chain, err := inner.ChainFor(ep.Name, eng.RNG())
	if err != nil {
		return proto, nil, nil, err
	}
	basis, err := eng.CVFluxBasis(ep.Name, proto, chain)
	if err != nil {
		return proto, nil, nil, err
	}
	grid, templates, err := eng.CVTemplatesFromBasis(basis)
	if err != nil {
		return proto, nil, nil, err
	}
	plan, err := analysis.NewFitPlan(grid.X, templates, rt.FilmNuisances(grid.X, ep.Assays[0].CYP)...)
	return proto, basis, plan, err
}

// diffusionStep times the Crank–Nicolson solver a flux basis is built
// from, stepping it over a CV run's own potential sweep, per step in
// ns; 0 when no substrate of the isoform is in the sample.
func diffusionStep(cyp *enzyme.CYP, sample map[string]float64, pots []float64, dt float64, budget time.Duration) (float64, error) {
	for _, b := range cyp.Bindings {
		conc := sample[b.Substrate.Name]
		if conc <= 0 {
			continue
		}
		cfg := diffusion.Config{
			Kinetics:  b.Kinetics(),
			Diffusion: b.Substrate.Diffusion,
			BulkO:     b.EffectiveConcentration(phys.MilliMolar(conc)),
			TotalTime: float64(len(pots)) * dt,
			Dt:        dt,
		}
		var err error
		ns := perCall(budget, func(int) int {
			var sim *diffusion.CoupleSim
			if sim, err = diffusion.New(cfg); err != nil {
				return 1
			}
			for _, e := range pots {
				sink += sim.Step(phys.Voltage(e))
			}
			return len(pots)
		})
		return ns, err
	}
	return 0, nil
}

// probeMonitorKernels measures the runtime and kernel rows of a monitor
// tick on the workload's platform: Executor.RunMonitor as a whole, and
// the chronoamperometric run inside it on a cell built the way
// RunMonitor builds one.
func probeMonitorKernels(targets []string, specs []rt.MonitorSpec, budget time.Duration) (*kernelProbe, error) {
	inner, err := designInner(targets)
	if err != nil {
		return nil, err
	}
	ex := rt.NewExecutor(inner, platformSeed)
	if err := ex.Warm(); err != nil {
		return nil, err
	}
	k := &kernelProbe{what: fmt.Sprintf("%d-target platform %v, monitor ticks", len(targets), targets)}
	var runErr error
	k.monitorUS = perCall(budget, func(rep int) int {
		tr, err := ex.RunMonitor(specs[rep%len(specs)], rt.SampleSeed(platformSeed, rep))
		if err != nil {
			runErr = err
		}
		sink += tr.StepMicroAmps
		return 1
	}) / 1e3
	if runErr != nil {
		return nil, fmt.Errorf("RunMonitor: %w", runErr)
	}
	var caTotal float64
	for _, spec := range specs {
		ep, ok := monitorElectrode(inner, spec.Target)
		if !ok {
			return nil, fmt.Errorf("no chronoamperometric electrode serves %s", spec.Target)
		}
		we := electrode.NewWorking(ep.Name, ep.Nano, ep.Assays[0])
		we.Func.PolymerStabilized = spec.Polymer
		we.Func.AgeSeconds = spec.AgeHours * 3600
		sol := cell.NewSolution()
		sol.Set(spec.Target, phys.MilliMolar(spec.ConcentrationMM))
		c := cell.NewSingleChamber(sol, we, electrode.NewReference("RE1"), electrode.NewCounter("CE1"))
		eng, err := measure.NewEngine(c, platformSeed)
		if err != nil {
			return nil, err
		}
		var arena measure.Arena
		eng.SetArena(&arena)
		chain, err := inner.ChainFor(ep.Name, eng.RNG())
		if err != nil {
			return nil, err
		}
		proto := measure.Chronoamperometry{Duration: spec.DurationSeconds, BaselinePhase: spec.BaselineSeconds}
		var res *measure.CAResult
		caTotal += perCall(budget, func(rep int) int {
			arena.Reset()
			eng.Reseed(rt.SampleSeed(platformSeed, rep))
			chain.Rebind(eng.RNG())
			res, err = eng.RunCA(ep.Name, chain, proto)
			return 1
		})
		if err != nil {
			return nil, fmt.Errorf("RunCA %s: %w", ep.Name, err)
		}
		k.nCA++
		k.digitize(chain, append([]float64(nil), res.Raw.Values...), res.Raw.Dt, false, budget/4)
	}
	// The specs are alternatives (one tick is one of them): report the
	// mean tick, not their sum.
	n := float64(k.nCA)
	k.caUS = caTotal / n / 1e3
	k.digCA = int(float64(k.digCA) / n)
	k.digCAUS /= n
	k.noiseUS /= n
	k.nCA = 1
	k.finish(budget / 4)
	return k, nil
}

// monitorElectrode finds the chronoamperometric electrode serving
// target, as Executor.RunMonitor does.
func monitorElectrode(inner *core.Platform, target string) (core.ElectrodePlan, bool) {
	for _, ep := range inner.Candidate.Electrodes {
		if ep.Blank || ep.Technique != enzyme.Chronoamperometry {
			continue
		}
		for _, a := range ep.Assays {
			if a.Target.Name == target {
				return ep, true
			}
		}
	}
	return core.ElectrodePlan{}, false
}

// digPerOp is the Digitize calls of one operation.
func (k *kernelProbe) digPerOp() int { return k.digCA + k.digCV }

// fill records the kernel rows as per-layer metrics and marks the rows
// this workload does not reach.
func (k *kernelProbe) fill(L map[string]float64, na map[string]bool, monitor bool) {
	L["measure.ca_us"] = k.caUS
	L["analog.digitize_ns"] = k.digNS
	L["analog.noise_ns"] = k.noiseNS
	L["analog.digitize_per_panel"] = float64(k.digPerOp())
	L["mathx.norm_ns"] = k.normNS
	if monitor {
		L["runtime.monitor_us"] = k.monitorUS
		for _, n := range []string{"runtime.run_us", "runtime.run_batch_us", "runtime.allocs_per_panel"} {
			na[n] = true
		}
	} else {
		L["runtime.run_us"] = k.runUS
		L["runtime.run_batch_us"] = k.runBatchUS
		L["runtime.allocs_per_panel"] = k.allocsPerPanel
	}
	if k.nCA == 0 {
		na["measure.ca_us"] = true
	}
	if k.nCV == 0 {
		for _, n := range []string{"measure.cv_us", "analysis.fit_us", "diffusion.step_ns"} {
			na[n] = true
		}
		return
	}
	L["measure.cv_us"] = k.cvUS
	L["analysis.fit_us"] = k.fitUS
	L["diffusion.step_ns"] = k.stepNS
}

func (k *kernelProbe) lines() []string {
	op := "panel"
	if k.monitorUS > 0 {
		op = "tick"
	}
	out := []string{fmt.Sprintf("kernel probe (%s, per call):", k.what)}
	if k.monitorUS > 0 {
		out = append(out, fmt.Sprintf("  runtime.RunMonitor %10.2f us", k.monitorUS))
	} else {
		out = append(out, fmt.Sprintf("  runtime.Run        %10.2f us   RunBatch %.2f us/panel, %.1f allocs/panel", k.runUS, k.runBatchUS, k.allocsPerPanel))
	}
	out = append(out, fmt.Sprintf("  measure.RunCA      %10.2f us   x %d per %s", k.caUS, k.nCA, op))
	if k.nCV > 0 {
		out = append(out,
			fmt.Sprintf("  measure.RunCVWithBasis %6.2f us   x %d per %s", k.cvUS, k.nCV, op),
			fmt.Sprintf("  analysis.FitPlan.Fit %8.2f us   x %d per %s", k.fitUS, k.nCV, op),
			fmt.Sprintf("  diffusion.Step     %10.2f ns   (builds the cached flux basis; no steps on the %s path)", k.stepNS, op))
	}
	out = append(out,
		fmt.Sprintf("  analog.Digitize    %10.2f ns   x %d per %s", k.digNS, k.digPerOp(), op),
		fmt.Sprintf("  analog.Noise.Sample %9.2f ns   x %d per %s (inside Digitize)", k.noiseNS, k.digPerOp(), op),
		fmt.Sprintf("  mathx.RNG.Norm     %10.2f ns   x %d per %s", k.normNS, normsPerSample*k.digPerOp(), op))
	return out
}

// table splits the operation's runtime cost into the kernel layers'
// self times: each layer's per-operation total minus the layers it
// calls. The residual is the runtime's own work (validation, cell and
// chain set-up, faradaic sums, peak scans, replica merging or trace
// analysis) plus the difference between isolated and in-situ costs.
func (k *kernelProbe) table() ([]string, float64) {
	normUS := k.normNS / 1e3
	// One blank-noise draw per sample happens in measure itself; the
	// chain's two draws happen inside the noise model.
	rows := []tableRow{
		{"measure.ca (self)", k.caUS*float64(k.nCA) - k.digCAUS - normUS*float64(k.digCA), "RunCA minus Digitize and its blank-noise draws"},
	}
	if k.nCV > 0 {
		rows = append(rows, tableRow{"measure.cv (self)", k.cvUS*float64(k.nCV) - k.digCVUS - normUS*float64(k.digCV), "RunCVWithBasis minus Digitize and its blank-noise draws"})
	}
	dig := k.digCAUS + k.digCVUS
	n := float64(k.digPerOp())
	rows = append(rows,
		tableRow{"analog.digitize (self)", dig - k.noiseUS, "mux, TIA, ADC"},
		tableRow{"analog.noise (self)", k.noiseUS - 2*normUS*n, "white and flicker sums"},
		tableRow{"mathx.norm", normsPerSample * normUS * n, fmt.Sprintf("%d normal draws per sample", normsPerSample)},
	)
	if k.nCV > 0 {
		rows = append(rows,
			tableRow{"analysis.fit", k.fitUS * float64(k.nCV), "template fit"},
			tableRow{"diffusion.step", 0, "cached flux basis: no steps per panel"})
	}
	if k.monitorUS > 0 {
		return layerTable("runtime.monitor_us (per tick, Executor.RunMonitor)", k.monitorUS, "us", rows)
	}
	return layerTable("runtime.run_batch_us (per panel, batches of 16)", k.runBatchUS, "us", rows)
}
