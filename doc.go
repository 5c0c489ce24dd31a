// Package advdiag is an open reproduction of "An Integrated Platform for
// Advanced Diagnostics" (De Micheli, Ghoreishizadeh, Boero, Valgimigli,
// Carrara — DATE 2011): platform-based design of integrated multi-target
// electrochemical biosensors, together with the full simulation substrate
// needed to evaluate such platforms without a wet lab.
//
// The package offers these entry points:
//
//   - Sensor: one functionalized working electrode with its acquisition
//     chain. Supports chronoamperometry (oxidase probes: glucose,
//     lactate, glutamate, cholesterol) and cyclic voltammetry
//     (cytochrome P450 probes for drug compounds), calibration runs and
//     figure-of-merit extraction (LOD, sensitivity, linear range,
//     response time).
//
//   - Platform: the paper's contribution. Given a list of target
//     molecules, the design-space explorer chooses probes, sensor
//     structure (shared chamber, per-technique, per-electrode), readout
//     classes and multiplexing, prunes infeasible configurations with
//     the paper's §II rules, and synthesizes the best candidate into a
//     simulatable multi-electrode platform with a netlist and an
//     acquisition schedule.
//
//   - Explore: the raw design-space exploration, returning every scored
//     candidate and the area/power/latency Pareto front.
//
//   - Lab: the batch runner over a designed Platform, with one
//     calibration per electrode construction, built once, and
//     concurrent panels (RunPanels).
//
//   - Fleet: the one intake for everything that arrives over time, over
//     one or many Platforms: sharded queues behind a pluggable Router,
//     Submit with backpressure or TrySubmit with load shedding, and
//     FleetStats.
//
//   - Server and Client: the HTTP front door over a Fleet and its Go
//     twin, speaking the versioned wire format of the advdiag/wire
//     package (cmd/labserve deploys it).
//
//   - FaultPlan and Diagnoser: deterministic fault injection into a
//     Fleet and the automated diagnosis that classifies faults and
//     quarantines convicted shards (GET /v1/diagnosis).
//
//   - MonitorScheduler: population-scale longitudinal monitoring of
//     recurring MonitorCampaigns over a Fleet or a Client.
//
// All public values use the paper's units: mM for concentrations, mV for
// potentials, µA for currents, µA/(mM·cm²) for sensitivities, seconds
// for time. The internal simulator works in SI.
//
// Determinism: every stochastic element derives from a seed. A panel's
// noise stream is seeded from the base seed and its submission index
// alone (internal/runtime.SampleSeed), so a Lab at any worker count and
// a Fleet at any shard count produce identical PanelResult.Fingerprint
// values, and Fleet.ReplayPanel recomputes any result bit for bit on
// any shard; a monitor tick's seed derives from its campaign's identity
// alone, so cohort fingerprints do not depend on topology or on the HTTP
// boundary; the wire format is lossless for float64; and the exact
// noise draw sequence is versioned by analog.NoiseModelVersion, carried
// by every wire.PanelResult.
//
// The README tells the rest of the story, one section per topic:
// "Architecture: runtime → Lab → Fleet → front door → scheduler", "The
// Fleet dispatcher", "Serving panels over HTTP" (endpoints and the
// binary framing), "Fault injection and automated diagnosis",
// "Self-healing lifecycle", "Population-scale monitoring",
// "Performance" (the hot path, the buffer-retention contract and the
// servebench benchmark), "Concurrency model", "Testing strategy" and
// "Static analysis: labvet".
package advdiag
