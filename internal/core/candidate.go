package core

import (
	"fmt"
	"strings"

	"advdiag/internal/echem"
	"advdiag/internal/electrode"
	"advdiag/internal/enzyme"
	"advdiag/internal/phys"
)

// ChamberPolicy is the fluidic partitioning choice (paper §II: shared
// volume, separation by reaction family, or one chamber per sensor).
type ChamberPolicy int

const (
	// SharedChamber wets every electrode with the same sample volume
	// (the Fig. 4 demonstrator).
	SharedChamber ChamberPolicy = iota
	// ChamberPerTechnique separates chronoamperometric and voltammetric
	// sensors into two volumes.
	ChamberPerTechnique
	// ChamberPerElectrode isolates every working electrode (the paper's
	// "each sensor in an array must have its own chamber" case).
	ChamberPerElectrode
)

func (p ChamberPolicy) String() string {
	switch p {
	case SharedChamber:
		return "shared-chamber"
	case ChamberPerTechnique:
		return "chamber-per-technique"
	case ChamberPerElectrode:
		return "chamber-per-electrode"
	default:
		return fmt.Sprintf("ChamberPolicy(%d)", int(p))
	}
}

// ReadoutSharing is the electronics sharing choice (paper §II-A: "an
// issue is the ability to share hardware resources ... possibly by
// multiplexing", cf. De Venuto [23]).
type ReadoutSharing int

const (
	// SharedMux multiplexes every working electrode into shared readout
	// hardware.
	SharedMux ReadoutSharing = iota
	// DedicatedChains gives every working electrode its own readout and
	// converter.
	DedicatedChains
)

func (s ReadoutSharing) String() string {
	switch s {
	case SharedMux:
		return "shared-mux"
	case DedicatedChains:
		return "dedicated-chains"
	default:
		return fmt.Sprintf("ReadoutSharing(%d)", int(s))
	}
}

// Choice is one point of the structural design space.
type Choice struct {
	// Assays maps each target to the chosen probe option.
	Assays map[string]enzyme.Assay
	// GroupSameIsoform co-locates targets sharing a CYP isoform on one
	// working electrode (CYP2B4: benzphetamine + aminopyrine).
	GroupSameIsoform bool
	// Chambers is the fluidic partitioning.
	Chambers ChamberPolicy
	// Sharing is the electronics sharing policy.
	Sharing ReadoutSharing
}

// ElectrodePlan is one planned working electrode.
type ElectrodePlan struct {
	// Name is the instance name ("WE1").
	Name string
	// Nano is the chosen surface treatment (from the cited electrode
	// construction of the probe, keeping calibration valid).
	Nano electrode.Nanostructure
	// Assays lists the assays on this electrode (several for a grouped
	// CYP isoform).
	Assays []enzyme.Assay
	// Specs are the target envelopes covered here.
	Specs []TargetSpec
	// Technique is the protocol family.
	Technique enzyme.Technique
	// MaxCurrent is the largest expected signal magnitude.
	MaxCurrent phys.Current
	// ResRequired is the current resolution needed to resolve the LOD.
	ResRequired phys.Current
	// Readout is the selected catalog readout class.
	Readout ReadoutClass
	// ProtocolTime is the per-slot acquisition time in seconds.
	ProtocolTime float64
	// Blank marks the enzyme-free CDS electrode.
	Blank bool
}

// caProtocolTime is the chronoamperometry slot length: a 15 s buffer
// baseline (the zeroing phase) plus 75 s of response — two and a half
// 90 %-response times past the Fig. 3 transient, within ~1 % of steady
// state.
const caProtocolTime = 90.0

// CABaselinePhase is the buffer-only zeroing phase at the start of each
// chronoamperometric slot.
const CABaselinePhase = 15.0

// recoveryTime is the sensor recovery before the next sample (paper
// §II-B: throughput includes the time for the signal to return to its
// baseline).
const recoveryTime = 30.0

// cvMargin is the CV window margin around the expected peaks.
var cvMargin = phys.MilliVolts(250)

// defaultCVRate is the platform sweep rate (the paper's ~20 mV/s limit).
var defaultCVRate = phys.MilliVoltsPerSecond(20)

// CitedNano returns the electrode treatment of the probe's cited
// construction: carbon nanotubes when its published operating point
// carries a nanostructure gain, bare otherwise.
func CitedNano(a enzyme.Assay) electrode.Nanostructure {
	if a.Perf().NanostructureGain > 1 {
		return electrode.CNT
	}
	return electrode.Bare
}

// SingleReadout returns the catalog readout the explorer would choose
// for a lone working electrode carrying assay a on the given surface
// treatment — the readout of a hand-held sensor or a long-term probe.
func SingleReadout(a enzyme.Assay, nano electrode.Nanostructure) (ReadoutClass, error) {
	plan := ElectrodePlan{Name: "WE1", Nano: nano, Assays: []enzyme.Assay{a},
		Specs: []TargetSpec{{Species: a.Target.Name}}, Technique: a.Technique}
	if err := plan.PlanCurrents(); err != nil {
		return ReadoutClass{}, err
	}
	return SelectReadout(plan.MaxCurrent, plan.ResRequired)
}

// PlanCurrents fills MaxCurrent, ResRequired and ProtocolTime from the
// plan's assays and target envelopes.
func (p *ElectrodePlan) PlanCurrents() error {
	area := electrode.ReferenceArea
	gain := p.Nano.Gain()
	switch p.Technique {
	case enzyme.Chronoamperometry:
		if len(p.Assays) != 1 {
			return fmt.Errorf("core: oxidase electrode %s must carry exactly one assay", p.Name)
		}
		ox := p.Assays[0].Oxidase
		maxC, lod := p.Specs[0].envelope(p.Assays[0])
		iMax := ox.CurrentDensity(maxC, ox.Applied, gain) * float64(area)
		sI := float64(ox.SensitivityAt(ox.Applied, gain)) * float64(area)
		p.MaxCurrent = phys.Current(iMax)
		p.ResRequired = phys.Current(sI * float64(lod) / 3)
		p.ProtocolTime = caProtocolTime
	case enzyme.CyclicVoltammetry:
		var total float64
		res := phys.Current(0)
		hi, lo := p.Assays[0].Binding.PeakPotential, p.Assays[0].Binding.PeakPotential
		for i, a := range p.Assays {
			b := a.Binding
			maxC, lod := p.Specs[i].envelope(a)
			sI := float64(b.PeakSensitivityAt(defaultCVRate, gain)) * float64(area)
			total += sI * float64(b.EffectiveConcentration(maxC))
			r := phys.Current(sI * float64(lod) / 3)
			if res == 0 || r < res {
				res = r
			}
			if b.PeakPotential > hi {
				hi = b.PeakPotential
			}
			if b.PeakPotential < lo {
				lo = b.PeakPotential
			}
		}
		// Capacitive background C·v rides on the faradaic signal.
		dl := echem.DoubleLayerFor(area, gain, electrode.DefaultSolutionResistance)
		total += float64(dl.SweepChargingCurrent(defaultCVRate))
		p.MaxCurrent = phys.Current(total)
		p.ResRequired = res
		window := float64(hi-lo) + 2*float64(cvMargin)
		p.ProtocolTime = 2 * window / float64(defaultCVRate)
	default:
		return fmt.Errorf("core: electrode %s has unknown technique", p.Name)
	}
	return nil
}

// Violation is one broken design rule.
type Violation struct {
	// Rule names the check ("peak-separation", "readout-range", ...).
	Rule string
	// Detail explains the failure.
	Detail string
	// Warning marks advisory findings that do not make the candidate
	// infeasible (e.g. CDS blank defeated by a direct oxidizer).
	Warning bool
}

func (v Violation) String() string {
	tag := "VIOLATION"
	if v.Warning {
		tag = "warning"
	}
	return fmt.Sprintf("[%s] %s: %s", tag, v.Rule, v.Detail)
}

// Candidate is one fully evaluated design point.
type Candidate struct {
	// Choice is the structural decision vector.
	Choice Choice
	// Electrodes are the planned working electrodes (including the CDS
	// blank when requested).
	Electrodes []ElectrodePlan
	// Chambers lists chamber names in order. Which chamber holds which
	// electrode is a pure function of the chamber policy — see
	// ChamberFor.
	Chambers []string
	// Feasible reports whether all hard rules passed.
	Feasible bool
	// Violations lists broken rules (hard and warnings).
	Violations []Violation
	// Budget is the total implementation cost.
	Budget Budget
	// PanelTime is the time to acquire one full panel in seconds.
	PanelTime float64
	// CycleTime is panel time plus recovery — the sample period floor.
	CycleTime float64
	// Parallel reports whether slots run concurrently.
	Parallel bool
	// key caches structuralKey(); see explore.go.
	key string
}

// ChamberFor returns the chamber name holding electrode i. Chamber
// membership is determined by the chamber policy alone, so it is
// computed on demand instead of being stored per candidate (the
// explorer builds thousands of candidates; a per-candidate map was the
// planning phase's largest allocation after the electrode plans).
func (c *Candidate) ChamberFor(i int) string {
	switch c.Choice.Chambers {
	case ChamberPerTechnique:
		if c.Electrodes[i].Technique == enzyme.Chronoamperometry {
			return "chamberCA"
		}
		return "chamberCV"
	case ChamberPerElectrode:
		return chamberName(i + 1)
	default: // SharedChamber
		return "chamber1"
	}
}

// Throughput returns panels per hour.
func (c *Candidate) Throughput() float64 {
	if c.CycleTime <= 0 {
		return 0
	}
	return 3600 / c.CycleTime
}

// Summary renders a one-line description for exploration reports.
func (c *Candidate) Summary() string {
	probes := make([]string, 0, len(c.Electrodes))
	for _, e := range c.Electrodes {
		if e.Blank {
			probes = append(probes, e.Name+":blank")
			continue
		}
		names := make([]string, 0, len(e.Assays))
		for _, a := range e.Assays {
			name := a.Target.Name
			// Disambiguate targets with several registered probes.
			if len(enzyme.AssaysFor(a.Target.Name)) > 1 {
				name += "@" + a.Probe
			}
			names = append(names, name)
		}
		probes = append(probes, fmt.Sprintf("%s:%s", e.Name, strings.Join(names, "+")))
	}
	status := "OK"
	if !c.Feasible {
		status = "infeasible"
	}
	return fmt.Sprintf("%-22s %-16s %d WE [%s] %s panel=%.0fs (%s)",
		c.Choice.Chambers, c.Choice.Sharing, len(c.Electrodes),
		strings.Join(probes, " "), c.Budget, c.PanelTime, status)
}
