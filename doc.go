// Package advdiag is an open reproduction of "An Integrated Platform for
// Advanced Diagnostics" (De Micheli, Ghoreishizadeh, Boero, Valgimigli,
// Carrara — DATE 2011): platform-based design of integrated multi-target
// electrochemical biosensors, together with the full simulation substrate
// needed to evaluate such platforms without a wet lab.
//
// The package offers three entry points:
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
//   - Lab: the batch runner over a designed Platform. It caches the
//     per-electrode calibration state once (keyed by sensor construction
//     and seed) and executes a batch of panels concurrently (RunPanels)
//     with deterministic per-sample seeding, per-panel timing from the
//     acquisition schedule, and aggregate throughput/cache statistics.
//
//   - Fleet: the one intake for everything that arrives over time, over
//     one or many Platforms. Each shard is a platform with its own
//     workers and bounded queue; a pluggable Router (panel-type
//     affinity, least-loaded, or consistent-hash by patient) places each
//     sample, Submit blocks on backpressure while TrySubmit sheds load
//     with ErrFleetSaturated, and FleetStats aggregates the per-shard
//     service counters. Any number of submitters share one Fleet:
//     streaming Submit callers, RunPanels batches, a Server and a
//     MonitorScheduler.
//
//   - Server and Client: the network front door over a Fleet and its
//     Go twin, speaking the versioned JSON wire format of the
//     advdiag/wire package. Backpressure maps to HTTP 429 (TrySubmit,
//     never a blocked handler), SIGTERM drains gracefully via
//     cmd/labserve, and batches submitted through the client return
//     PanelResult fingerprints byte-identical to a local Lab.
//
//   - FaultPlan and Diagnoser: the fault-injection harness and the
//     automated fleet diagnosis over it. Deterministic, replayable
//     faults (fouled electrode, dead shard, slow shard — plus the
//     wire-level MalformedClient) degrade a Fleet on purpose;
//     the Diagnoser watches stats snapshots and panel outcomes,
//     classifies what is wrong (sensor fouling vs shard stall vs
//     queue saturation vs wire errors vs drain), quarantines convicted
//     shards — their backlog reroutes to siblings with fingerprints
//     intact — and serves the verdict on GET /v1/diagnosis.
//
//   - MonitorScheduler: population-scale longitudinal monitoring. It
//     multiplexes thousands of recurring MonitorCampaigns — calibrate,
//     read on a cadence, recalibrate on schedule or when the rolling
//     drift detector fires — over one MonitorBackend (a Fleet, or a
//     Client across the HTTP boundary) in virtual time, and reports
//     one CampaignReport per campaign with a topology-independent
//     cohort fingerprint.
//
// # Architecture
//
// The execution stack is layered over one engine; every layer above
// internal/runtime is an adapter, never a re-implementation:
//
//	┌──────────────────────────────────────────┐
//	│   advdiag.MonitorScheduler (campaigns)   │
//	│ virtual time ▸ drift detection ▸ recals  │
//	└──────────────────┬───────────────────────┘
//	                   │ MonitorBackend (a Fleet, or a Client over HTTP)
//	┌──────────────────▼───────────────────────┐
//	│      advdiag.Server (HTTP front door)    │
//	│  wire format ▸ 429 backpressure ▸ drain  │
//	└──────────────────┬───────────────────────┘
//	                   │ jobs that carry their own reply
//	┌──────────────────▼───────────────────────┐
//	│            advdiag.Fleet                 │
//	│  Router ▸ shard queues ▸ FleetStats      │
//	└───────┬──────────┬──────────┬────────────┘
//	        │ shard 0  │ shard 1  │ shard N-1
//	┌───────▼──┐  ┌────▼─────┐  ┌─▼────────┐
//	│  shard   │  │  shard   │  │  shard   │
//	│ workers  │  │ workers  │  │ workers  │
//	│ batching · cancellation · stats       │
//	└───────┬──────────┬──────────┬─────────┘
//	        └──────────┼──────────┘
//	┌──────────────────▼───────────────────────┐
//	│        internal/runtime.Executor         │
//	│ validation · seeding · calibration cache │
//	│     · panel assembly · monitor traces    │
//	└──────────────────────────────────────────┘
//
// Platform.RunPanel is the zero-concurrency adapter over the same
// Executor (it runs with the raw platform seed); a Lab runs batches
// through the same per-platform execution core every Fleet shard
// drives; a Fleet multiplexes samples across shards without ever
// touching execution logic. Because a Lab or Fleet sample's noise
// stream is seeded from the base seed and its submission index alone
// (runtime.SampleSeed), the two serving layers are bit-for-bit
// interchangeable: a Lab at any worker count and a Fleet at any shard
// count under any router produce identical PanelResult.Fingerprint
// values for the same submission sequence (indices count from the
// service's first accepted sample; see Fleet's determinism note for
// reused dispatchers).
//
// Use a Lab for whole batches on one platform design — it is the local
// reference the serving stack is checked against. Use a Fleet for
// everything that arrives over time (a one-shard Fleet is the
// streaming twin of a Lab), and grow it when traffic mixes panel
// types that belong on different platform designs (route by
// AffinityRouter), when one instrument's throughput ceiling is the
// bottleneck (identical shards behind LeastLoadedRouter), or when
// per-patient affinity matters for longitudinal tracking (HashRouter).
//
// # Serving panels over HTTP
//
// The Server publishes a Fleet on the network; the Client consumes it.
// Samples and results travel in the advdiag/wire package's versioned
// JSON (schema version 2, strict decoding: unknown fields, version
// skew, and concentrations the runtime would refuse are all HTTP 400
// before anything reaches the fleet):
//
//	POST /v1/panels        one wire.Sample         → one wire.Outcome
//	POST /v1/panels/batch  [wire.Sample, …]        → [wire.Outcome, …] (request order)
//	POST /v1/panels/stream NDJSON wire.Sample      → NDJSON wire.Outcome (completion order)
//	POST /v1/monitors      one wire.MonitorRequest → one wire.MonitorOutcome
//	GET  /v1/monitors/{id} latest stored outcome for a campaign (202 while pending)
//	GET  /v1/stats         ServerStats as JSON (fleet counters + scheduler snapshot)
//	GET  /v1/diagnosis     wire.Diagnosis: classified findings + quarantine set
//	GET  /healthz          200 while serving, 503 while draining
//
// Backpressure is explicit: every submission sheds like
// Fleet.TrySubmit, so a saturated shard queue is HTTP 429
// (ErrFleetSaturated through the Client) rather than a blocked
// handler, and every reject is counted in /v1/stats. Each submitted job
// carries its own reply and its request's context: the Server needs
// no exclusive ownership of its Fleet, and a request whose client left
// before its job reached a worker is dropped without running. The wire format is lossless for float64, so results
// fetched through the Client carry fingerprints byte-identical to a
// local Lab run of the same batch. cmd/labserve is the deployable
// front door (graceful SIGTERM drain); examples/remote shows the whole
// boundary in one process.
//
// Beside JSON, the batch and stream endpoints speak a length-prefixed
// binary framing (advdiag/wire's MarshalSampleBinary and friends,
// media type application/x-advdiag-binary): each frame is a u32
// little-endian payload length, the u16 schema version, a one-byte
// message kind, and the fields in fixed order with float64 bits
// verbatim — lossless by construction and about 10x cheaper to encode
// and decode than JSON (TestBinaryCodecCheaperThanJSON in advdiag/wire
// measures it). The encoding is canonical (concentration keys sorted,
// one valid byte string per message) and decoding is as strict as
// JSON's: version skew, unknown kinds, truncation, length lies and
// non-canonical key order all error. The request body's codec is
// declared by Content-Type and the response codec is requested by
// Accept. The Client always sends and accepts binary on its batch and
// stream calls, and refuses a 200 answer in any other codec; the
// JSON shapes serve curl and other non-Go clients.
//
// # Fault injection and automated diagnosis
//
// The diagnosis loop sits beside the serving path, never in it: the
// Server feeds the Diagnoser what it already has (a stats snapshot on
// each GET /v1/diagnosis, the outcome of every panel it submits), and
// the Diagnoser acts back on the Fleet only when it convicts:
//
//	            GET /v1/diagnosis
//	                   │ Observe(Stats) ▸ Diagnose
//	┌──────────────────▼───────────────────────┐
//	│            advdiag.Diagnoser             │
//	│ recovery-ratio rings ▸ counter deltas    │
//	│ classify: sensor_fouling │ shard_stall   │
//	│   queue_saturation │ wire_errors │ drain │
//	└──────────────────┬───────────────────────┘
//	                   │ Quarantine(shard) on conviction
//	┌──────────────────▼───────────────────────┐
//	│ advdiag.Fleet — per-shard fault state    │
//	│ FaultPlan ▸ InjectFault ▸ ClearFaults    │
//	└──────────────────────────────────────────┘
//
// Faults are first-class and deterministic. A fault injected with
// InjectFault, or a whole FaultPlan with InjectFaults, perturbs exactly what its seed says: a FaultFouledElectrode draws
// its per-panel sensitivity loss and noise from (fault seed, sample
// seed, target) inside internal/runtime, so two fleets with the same
// plan and traffic fail identically — which is what makes every
// diagnosis scenario an ordinary table test instead of a flaky chaos
// run. Every fault acts in one place, the shard's execution step, and
// a healthy fleet pays one atomic load per dequeue.
//
// Quarantine removes a shard from the routing view (every Router is
// quarantine-aware for free — it simply cannot pick a shard it cannot
// see) and reroutes the shard's held and queued work to siblings.
// Rerouted jobs keep their fleet submission indices, so their noise
// streams — and therefore their PanelResult fingerprints — are
// byte-identical to an unfaulted run: quarantine loses no panels and
// changes no bits. The scenario suite (diagnosis_test.go) proves each
// classification under -race; cmd/labserve -diag-smoke proves the
// whole loop over a real TCP connection in CI.
//
// # Self-healing lifecycle
//
// The Fleet's topology is elastic at run time: AddShard grows it under
// live load (the new shard takes the next index and joins the routing
// view immediately), RemoveShard retires a shard (its backlog drains
// to siblings, its index is never reused, and it stays in FleetStats
// marked Removed). The determinism contract that survives all of this
// is replay-checkability rather than topology-independence of the
// whole batch: every sample's noise seed derives from (fleet seed,
// submission index) alone — internal/runtime.SampleSeed — so
// Fleet.ReplayPanel recomputes any result bit-identically on any
// shard of any topology, past or present. The HashRouter keeps its
// side of the bargain by naming virtual nodes after real shard
// indices: adding or removing a shard remaps only the keys that
// gained or lost their shard.
//
// Health probes close the loop that quarantine opens. Each sweep
// (ProbeShards, or StartHealthProbes on a ticker) runs a cheap seeded
// probe panel per shard through the fault harness and compares its
// fingerprint against the shard's known-good baseline, driving a
// per-shard circuit breaker:
//
//	         consecutive probe failures ≥ failThreshold
//	┌────────┐            (breaker opens)             ┌────────────┐
//	│ CLOSED │ ─────────────────────────────────────▸ │    OPEN    │
//	│serving │                                        │quarantined │
//	└────────┘                                        └────────────┘
//	     ▲                                              │        ▲
//	     │ known-good probes                 known-good │        │ probe
//	     │ ≥ restoreThreshold                     probe │        │ fails
//	     │ (automatic un-quarantine)                    ▼        │
//	     │                                          ┌──────────────┐
//	     └───────────────────────────────────────── │  HALF-OPEN   │
//	                                                │ probes only  │
//	                                                └──────────────┘
//
// Both thresholds are 3. A convicted-then-cleared shard therefore
// restores itself: once ClearFaults heals the hardware, three
// consecutive known-good probes close the breaker with no manual un-quarantine
// call. (A flaky fault deliberately persists through quarantine so
// the breaker keeps seeing it; dead, fouled and slow faults are
// lifted at quarantine so stragglers complete healthy.) Every
// transition lands in a timestamped event ring (Fleet.Events) served
// with GET /v1/diagnosis; POST /v1/shards and DELETE /v1/shards/{id}
// expose the topology over HTTP; and a fouling conviction also flags
// the attached MonitorScheduler's campaigns for forced recalibration
// (ForceRecal). cmd/labserve -elastic-smoke proves the whole
// lifecycle — breaker trip, live remove+add, automatic restore,
// replay verification — over a real TCP connection in CI.
//
// # Population-scale monitoring
//
// A MonitorRequest is one continuous chronoamperometric acquisition on
// an aged film — optionally two-phase (baseline first, sample after)
// and with Fig. 3-style injections — executed by Lab.RunMonitor, the
// Fleet's monitor lanes (SubmitMonitor/MonitorResults: separate
// counters and result channel, so panel seeding is untouched), or
// Client.RunMonitor across HTTP. Sensor.Monitor and the longterm drift
// model are thin adapters over the same internal/runtime analysis.
//
// The monitor determinism contract is stronger than the panel one: a
// tick's noise seed derives from the campaign's identity alone
// (MonitorSeed: base seed, campaign ID, tick index) and travels in the
// request, so a MonitorScheduler cohort's fingerprint is
// byte-identical at any worker count, shard count, submission
// interleaving, or across the HTTP boundary. examples/population
// proves it on a 10,000-campaign cohort; cmd/labserve -monitor-smoke
// proves it across a real TCP connection in CI.
//
// All public values use the paper's units: mM for concentrations, mV for
// potentials, µA for currents, µA/(mM·cm²) for sensitivities, seconds
// for time. The internal simulator works in SI.
//
// Everything is deterministic: every stochastic element (thermal and
// flicker noise) derives from the seed passed at construction. Normal
// variates come from a 128-layer ziggurat (mathx.RNG.Norm), one 64-bit
// draw in the common case; flicker noise is Voss–McCartney with a
// running row sum, O(1) per sample. The exact draw sequence is
// versioned by analog.NoiseModelVersion, which every wire.PanelResult
// carries as noise_model: a change that moves any noise bit bumps it
// and regenerates the golden traces once, with
// "go test ./internal/measure -run TestGolden -update". Statistical
// oracles, not bit patterns, guard the noise itself: normal moments
// and tail masses (mathx TestNormMoments), the flicker PSD slope
// (analog TestFlickerNoiseSpectrum), and the Table III figures of
// merit and LODs (experiments TestTableIIIShape).
//
// # Concurrency
//
// The design-space exploration runs on a bounded worker pool (one
// worker per CPU by default; see core.ExploreOptions and the
// WithExploreWorkers platform option). Duplicate structures are priced
// once via memoization, and results are collected in enumeration order,
// so the candidate ranking is byte-identical at any worker count. The
// E1–E16 paper experiments (internal/experiments) likewise run
// concurrently through their registry's RunAll.
//
// The one concurrency rule on the measurement layer: a measure.Engine
// and its RNG belong to a single goroutine. Concurrent workloads build
// one engine per goroutine, each with its own seed — engines are cheap
// and two engines with equal seeds produce bit-identical streams. The
// Lab applies the rule at run time: every panel execution builds its
// own engine, seeded from the sample index, so batch and streaming
// results are byte-identical at any worker count.
//
// # Performance
//
// The per-sample hot path is engineered to be allocation-free in steady
// state and to avoid redundant physics:
//
//   - internal/diffusion integrates Fick's second law with an
//     unconditionally stable Crank–Nicolson scheme on an exponentially
//     graded mesh — one prefactored tridiagonal solve per external
//     sample (see mathx.SolveTridiag) instead of stability-bound
//     explicit substeps, validated against the Cottrell and
//     Randles–Ševčík analytic results at tighter tolerance than the
//     explicit scheme it replaced.
//
//   - The measurement loops (measure.RunCA, measure.RunCV) hoist all
//     loop-invariant work — species lookups, cross-talk and interferent
//     classification, efficiency sigmoids, concentration timelines —
//     out of the per-timestep code; a timestep allocates nothing. The
//     CV sweep grid (programmed and applied potentials, film-bump
//     shapes) is tabulated once in the shared CVBasis, and RunCA stops
//     evaluating the double-layer charging term once it underflows.
//     RunCA's sources are segment-constant: it refreshes each
//     cross-talk and interferent term only when an injection or the
//     baseline's end can change it (cell.Sampler.Next), and adds the
//     cached terms in the per-sample order, so output is bit-identical.
//
//   - Noise synthesis, the largest cost of a panel, is one ziggurat
//     draw per normal and O(1) flicker bookkeeping per sample.
//
//   - The acquisition chain works a run at a time. The measurement loops
//     compute a run's cell current first, then hand the whole run to
//     analog.Chain.DigitizeRun, which draws white and flicker noise in
//     blocks (mathx.RNG.NormFill), each from its own stream, and applies
//     mux, noise, TIA, ADC and current recovery in one loop with the
//     run's constants held in locals. Each stream keeps its draw order,
//     so the output is bit-identical to sample-at-a-time Digitize calls
//     and analog.NoiseModelVersion is unchanged.
//
//   - The diffusion problem is linear in bulk concentration, so the
//     panel path never re-simulates it per sample: the calibration
//     cache precomputes each voltammetric electrode's unit flux basis
//     (measure.CVFluxBasis) once, and panels scale it by the sample's
//     effective concentration (measure.RunCVWithBasis).
//
//   - Panels run through a batched kernel: the runtime Executor's
//     RunBatch amortises per-panel setup across a slice of samples
//     using pooled scratch arenas (sync.Pool), and Lab chunks its
//     batches through it. A Fleet shard has one execution step, exec,
//     that every dequeued job goes through: it gates the job on the
//     shard's fault state (a dead shard or a flaky down slot sends it
//     to hold, which keeps it without losing it), delays it on a slow
//     shard, drops it if its requester has gone, and runs the
//     surviving panels as one batch — a lone panel is a batch of one —
//     followed by a trailing monitor job. On a healthy or fouled shard
//     the worker first drains the panel jobs already queued (without
//     waiting, at most 16, stopping after a monitor) into that batch,
//     without reordering submission indices — the per-panel seed
//     derivation and ReplayPanel's bit-identical replay contract are
//     untouched.
//
// Retention contract: everything a run returns (trace series, panel
// readings) is freshly allocated and caller-owned; results never alias
// engine scratch and remain valid after later runs on the same engine.
// A CVBasis is immutable after construction and safe for concurrent
// readers.
//
// # Static analysis
//
// The contracts above are machine-enforced by the project's own
// analyzer suite, internal/lint, fronted by cmd/labvet ("go run
// ./cmd/labvet ./..."). Determinism rules ban wall-clock reads,
// math/rand, and order-sensitive map iteration in the kernel packages
// (internal/runtime, internal/measure, internal/diffusion,
// internal/analog, wire); hot-path rules keep //advdiag:hotpath
// functions free of fmt calls, escaping closures, and grow-from-nil
// appends; wire-parity rules require every exported wire field in the
// JSON twin and both binary codec directions; lifecycle rules encode
// the two-lock serving design (no blocking Submit or channel send
// under a mutex) and the one-engine-per-goroutine rule. Violations
// that are intentionally safe carry an "//advdiag:allow <rule>
// <reason>" directive — the reason is mandatory and checked. See the
// README's "Static analysis: labvet" section for the rule table.
//
// servebench (its own module, with BENCHMARK.json at the repository
// root) is the one benchmark of the serving stack: three workloads
// with end-to-end CPU and wall-clock metrics, a traced per-layer
// table, and a correctness check on every run. See the README's
// Performance section.
package advdiag
