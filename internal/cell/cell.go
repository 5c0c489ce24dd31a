// Package cell assembles electrodes into electrochemical cells: one or
// more chambers, each holding a solution with time-varying composition,
// a set of working electrodes, and the reference/counter pair they share
// (paper §II: single sensors, n+2-electrode multi-target sensors, and
// arrays with or without separate chambers).
package cell

import (
	"fmt"
	"iter"
	"math"
	"slices"
	"sort"

	"advdiag/internal/electrode"
	"advdiag/internal/phys"
)

// Injection is a step change of one species' bulk concentration at a
// given time (sample addition into the measurement chamber, paper
// Fig. 3).
type Injection struct {
	// Time is the injection instant in seconds from experiment start.
	Time float64
	// Species is the species name.
	Species string
	// Delta is the concentration step (may be negative for dilution,
	// but the running total is floored at zero).
	Delta phys.Concentration
}

// Solution is the bulk liquid of one chamber: initial concentrations
// plus a time-ordered list of injections.
type Solution struct {
	initial    map[string]phys.Concentration
	injections []Injection
	// names is the sorted species list, maintained incrementally by Set
	// and Inject so the read paths (Species, Sampler construction) never
	// re-sort.
	names []string
}

// NewSolution returns an empty solution (all concentrations zero).
func NewSolution() *Solution {
	return &Solution{initial: make(map[string]phys.Concentration)}
}

// Reset empties the solution in place — no initial concentrations, no
// injections — while keeping the allocated map and slices for reuse. A
// reset solution is indistinguishable from NewSolution() to every read
// path, which is what lets batched panel runners rebuild per-sample
// solutions without reallocating.
func (s *Solution) Reset() {
	clear(s.initial)
	s.injections = s.injections[:0]
	s.names = s.names[:0]
}

// noteSpecies records a species name in the sorted name cache.
func (s *Solution) noteSpecies(species string) {
	i := sort.SearchStrings(s.names, species)
	if i < len(s.names) && s.names[i] == species {
		return
	}
	s.names = append(s.names, "")
	copy(s.names[i+1:], s.names[i:])
	s.names[i] = species
}

// Set fixes the initial concentration of a species.
func (s *Solution) Set(species string, c phys.Concentration) *Solution {
	if c < 0 {
		c = 0
	}
	s.initial[species] = c
	s.noteSpecies(species)
	return s
}

// Inject schedules a concentration step. Injections may be added in any
// order; they are sorted internally. A NaN instant never arrives, so a
// step at a NaN time is dropped: neither At nor a Sampler ever applies
// it. Steps at ±Inf are kept: one at −Inf applies from the start, one
// at +Inf at no finite time.
func (s *Solution) Inject(t float64, species string, delta phys.Concentration) *Solution {
	if math.IsNaN(t) {
		return s
	}
	s.injections = append(s.injections, Injection{Time: t, Species: species, Delta: delta})
	sort.SliceStable(s.injections, func(i, j int) bool { return s.injections[i].Time < s.injections[j].Time })
	s.noteSpecies(species)
	return s
}

// At returns the bulk concentration of a species at time t.
func (s *Solution) At(species string, t float64) phys.Concentration {
	c := s.initial[species]
	for _, inj := range s.injections {
		if inj.Time > t {
			break
		}
		if inj.Species == species {
			c += inj.Delta
			if c < 0 {
				c = 0
			}
		}
	}
	return c
}

// Species returns every species name mentioned by the solution, sorted.
// The list is maintained incrementally by Set/Inject; the returned
// slice is a copy the caller may keep or mutate.
func (s *Solution) Species() []string {
	return append([]string(nil), s.names...)
}

// AllSpecies iterates over the names Species returns, in the same
// sorted order, without copying them: the read path for per-run loops
// that only look each name up.
func (s *Solution) AllSpecies() iter.Seq[string] {
	return slices.Values(s.names)
}

// Sampler is an O(1)-per-call view of one species' concentration
// timeline. Where Solution.At pays a map lookup plus a scan of the full
// injection list on every call, a Sampler resolves the map once at
// construction and walks its private injection cursor forward as time
// advances — the fast path the per-timestep measurement loops use.
//
// At calls with non-decreasing t are O(1); a time before the previous
// call rewinds the cursor (O(k) in the species' injection count), so a
// Sampler is correct for any call pattern and merely fastest for the
// monotone one. Next tells a loop how long the last value holds, so it
// can skip the calls in between. A Sampler is a value: callers keep it
// in place and call At through its address. A Sampler belongs to one
// goroutine.
type Sampler struct {
	initial phys.Concentration
	steps   []Injection // this species only, time-ordered
	idx     int
	cur     phys.Concentration
	lastT   float64
}

// Sampler builds the single-species cursor for the given species name.
// The zero concentration timeline of an unknown species is itself valid
// (every concentration is 0), mirroring Solution.At.
func (s *Solution) Sampler(species string) Sampler {
	sm := Sampler{initial: s.initial[species]}
	for _, inj := range s.injections {
		if inj.Species == species {
			sm.steps = append(sm.steps, inj)
		}
	}
	sm.rewind()
	return sm
}

// rewind resets the cursor to t = −∞.
func (sm *Sampler) rewind() {
	sm.idx = 0
	sm.cur = sm.initial
	sm.lastT = math.Inf(-1)
}

// At returns the species concentration at time t, matching
// Solution.At exactly (including the floor-at-zero of the running
// total after each injection).
func (sm *Sampler) At(t float64) phys.Concentration {
	if t < sm.lastT {
		sm.rewind()
	}
	sm.lastT = t
	for sm.idx < len(sm.steps) && sm.steps[sm.idx].Time <= t {
		sm.cur += sm.steps[sm.idx].Delta
		if sm.cur < 0 {
			sm.cur = 0
		}
		sm.idx++
	}
	return sm.cur
}

// Next returns the time of the sampler's next step: At returns the same
// value for every t from the last call's time up to, but not including,
// Next. It is +Inf when no step is left. Step times are never NaN
// (Inject drops those), so the minimum over several samplers is never
// NaN either.
func (sm *Sampler) Next() float64 {
	if sm.idx >= len(sm.steps) {
		return math.Inf(1)
	}
	return sm.steps[sm.idx].Time
}

// Chamber is one fluidic volume with its electrodes.
type Chamber struct {
	// Name identifies the chamber ("main", "ch1"...).
	Name string
	// Solution is the chamber liquid.
	Solution *Solution
	// Electrodes lists every electrode wetted by the chamber.
	Electrodes []*electrode.Electrode
}

// WorkingElectrodes returns the chamber's WEs in declaration order.
func (ch *Chamber) WorkingElectrodes() []*electrode.Electrode {
	var out []*electrode.Electrode
	for _, e := range ch.Electrodes {
		if e.Role == electrode.Working {
			out = append(out, e)
		}
	}
	return out
}

// Validate checks the chamber holds a legal electrode set: at least one
// WE, exactly one RE, exactly one CE.
func (ch *Chamber) Validate() error {
	if ch.Name == "" {
		return fmt.Errorf("cell: chamber with empty name")
	}
	if ch.Solution == nil {
		return fmt.Errorf("cell: chamber %s has no solution", ch.Name)
	}
	var nWE, nRE, nCE int
	for _, e := range ch.Electrodes {
		if err := e.Validate(); err != nil {
			return fmt.Errorf("cell: chamber %s: %w", ch.Name, err)
		}
		switch e.Role {
		case electrode.Working:
			nWE++
		case electrode.Reference:
			nRE++
		case electrode.Counter:
			nCE++
		}
	}
	if nWE < 1 {
		return fmt.Errorf("cell: chamber %s has no working electrode", ch.Name)
	}
	if nRE != 1 {
		return fmt.Errorf("cell: chamber %s needs exactly one reference electrode, has %d", ch.Name, nRE)
	}
	if nCE != 1 {
		return fmt.Errorf("cell: chamber %s needs exactly one counter electrode, has %d", ch.Name, nCE)
	}
	return nil
}

// DefaultCrosstalk is the fraction of a neighbouring working electrode's
// H₂O₂ production that appears as parasitic current on a co-chambered
// electrode. The paper argues this is small ("the diffusion coefficient
// of H₂O₂ is really low, [so] we can assume negligible cross-talk");
// 1 % is our default for adjacent electrodes in a shared chamber.
const DefaultCrosstalk = 0.01

// Cell is the whole bio-interface: one or more chambers. Electrodes in
// different chambers never interact chemically.
type Cell struct {
	// Chambers lists the fluidic volumes.
	Chambers []*Chamber
	// Crosstalk is the co-chamber H₂O₂ leakage coefficient; zero means
	// ideal isolation, DefaultCrosstalk is the physical default.
	Crosstalk float64
}

// NewSingleChamber builds the common case: every electrode in one shared
// chamber (the paper's Fig. 4 demonstrator).
func NewSingleChamber(sol *Solution, electrodes ...*electrode.Electrode) *Cell {
	return &Cell{
		Chambers:  []*Chamber{{Name: "main", Solution: sol, Electrodes: electrodes}},
		Crosstalk: DefaultCrosstalk,
	}
}

// Validate checks all chambers and name uniqueness across the cell.
func (c *Cell) Validate() error {
	if len(c.Chambers) == 0 {
		return fmt.Errorf("cell: no chambers")
	}
	if c.Crosstalk < 0 || c.Crosstalk >= 1 {
		return fmt.Errorf("cell: crosstalk coefficient %g outside [0,1)", c.Crosstalk)
	}
	seenCh := map[string]bool{}
	seenEl := map[string]bool{}
	for _, ch := range c.Chambers {
		if seenCh[ch.Name] {
			return fmt.Errorf("cell: duplicate chamber name %q", ch.Name)
		}
		seenCh[ch.Name] = true
		if err := ch.Validate(); err != nil {
			return err
		}
		for _, e := range ch.Electrodes {
			if seenEl[e.Name] {
				return fmt.Errorf("cell: duplicate electrode name %q", e.Name)
			}
			seenEl[e.Name] = true
		}
	}
	return nil
}

// WorkingElectrodes returns every WE across all chambers in order.
func (c *Cell) WorkingElectrodes() []*electrode.Electrode {
	var out []*electrode.Electrode
	for _, ch := range c.Chambers {
		out = append(out, ch.WorkingElectrodes()...)
	}
	return out
}

// ChamberOf returns the chamber containing the named electrode.
func (c *Cell) ChamberOf(name string) (*Chamber, error) {
	for _, ch := range c.Chambers {
		for _, e := range ch.Electrodes {
			if e.Name == name {
				return ch, nil
			}
		}
	}
	return nil, fmt.Errorf("cell: no chamber holds electrode %q", name)
}

// FindWE returns the named working electrode. It scans in place (the
// measurement engine resolves electrodes by name on every run, so this
// lookup must not build the filtered list WorkingElectrodes returns).
func (c *Cell) FindWE(name string) (*electrode.Electrode, error) {
	for _, ch := range c.Chambers {
		for _, e := range ch.Electrodes {
			if e.Role == electrode.Working && e.Name == name {
				return e, nil
			}
		}
	}
	return nil, fmt.Errorf("cell: no working electrode %q", name)
}

// Neighbours returns the other working electrodes sharing a chamber with
// the named one — the candidates for chemical cross-talk.
func (c *Cell) Neighbours(name string) ([]*electrode.Electrode, error) {
	ch, err := c.ChamberOf(name)
	if err != nil {
		return nil, err
	}
	var out []*electrode.Electrode
	for _, e := range ch.WorkingElectrodes() {
		if e.Name != name {
			out = append(out, e)
		}
	}
	return out, nil
}

// String summarizes the cell.
func (c *Cell) String() string {
	nWE := len(c.WorkingElectrodes())
	return fmt.Sprintf("Cell[%d chamber(s), %d WE]", len(c.Chambers), nWE)
}
