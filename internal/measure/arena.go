package measure

import (
	"advdiag/internal/trace"
)

// Arena is a reusable pool of trace buffers for the protocol runners.
// The panel hot path discards every per-run trace after extracting a
// handful of scalars (step currents, fitted amplitudes, peak
// potentials), so the Series and XY allocations — the bulk of a run's
// garbage — can be recycled wholesale between runs.
//
// An engine with an arena attached (SetArena) carves its result traces
// out of the arena instead of the heap: results remain structurally
// identical but alias arena memory, valid only until the arena's next
// Reset. Callers that retain traces either copy out what they keep
// before the next Reset (runtime.Executor.RunMonitor returns fresh
// copies of its times and currents) or run without an arena — the
// default, as experiments and the CSV exporters do — and get
// heap-allocated results exactly as before. An arena belongs to one
// goroutine.
type Arena struct {
	series []*trace.Series
	nSer   int
	xys    []*trace.XY
	nXY    int
}

// Reset reclaims every outstanding buffer. All traces handed out since
// the previous Reset become invalid.
func (a *Arena) Reset() {
	a.nSer = 0
	a.nXY = 0
}

// newSeries returns a zero-filled-by-assignment series of n samples
// (callers assign every element) with NewSeries's validation.
func (a *Arena) newSeries(start, dt float64, n int, unit string) (*trace.Series, error) {
	if dt <= 0 || n <= 0 {
		return nil, trace.ErrBadSeries
	}
	if a.nSer == len(a.series) {
		a.series = append(a.series, &trace.Series{})
	}
	s := a.series[a.nSer]
	a.nSer++
	s.Start, s.Dt, s.Unit = start, dt, unit
	if cap(s.Values) < n {
		s.Values = make([]float64, n)
	}
	s.Values = s.Values[:n]
	return s, nil
}

// newXY returns an empty XY with the given axis labels.
func (a *Arena) newXY(xUnit, yUnit string) *trace.XY {
	if a.nXY == len(a.xys) {
		a.xys = append(a.xys, &trace.XY{})
	}
	p := a.xys[a.nXY]
	a.nXY++
	p.XUnit, p.YUnit = xUnit, yUnit
	p.X = p.X[:0]
	p.Y = p.Y[:0]
	return p
}

// SetArena attaches (or with nil detaches) an arena to the engine.
// While attached, RunCA/RunCV results alias arena memory — see Arena.
func (e *Engine) SetArena(a *Arena) { e.arena = a }

// Reseed rewinds the engine's random source to the exact state
// NewEngine(cell, seed) would give it, letting batched runners reuse
// one engine (and its validated cell) across many deterministic runs.
func (e *Engine) Reseed(seed uint64) { e.rng.Reset(seed) }

// newSeries dispatches to the arena when one is attached.
func (e *Engine) newSeries(start, dt float64, n int, unit string) (*trace.Series, error) {
	if e.arena != nil {
		return e.arena.newSeries(start, dt, n, unit)
	}
	return trace.NewSeries(start, dt, n, unit)
}

// newXY dispatches to the arena when one is attached.
func (e *Engine) newXY(xUnit, yUnit string) *trace.XY {
	if e.arena != nil {
		return e.arena.newXY(xUnit, yUnit)
	}
	return trace.NewXY(xUnit, yUnit)
}
