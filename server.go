package advdiag

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"advdiag/wire"
)

// ErrServerDraining is the sentinel a draining or closed Server
// returns for new submissions; the HTTP layer maps it to 503.
var ErrServerDraining = errors.New("advdiag: server is draining")

// Server is the network front door over a Fleet: it owns the mapping
// from HTTP requests to fleet submissions and back, speaking the wire
// package's versioned JSON format.
//
//	POST /v1/panels        one wire.Sample          → one wire.Outcome
//	POST /v1/panels/batch  [wire.Sample, …]         → [wire.Outcome, …] (request order)
//	POST /v1/panels/stream NDJSON wire.Sample       → NDJSON wire.Outcome (completion order)
//	POST /v1/monitors      one wire.MonitorRequest  → one wire.MonitorOutcome
//	GET  /v1/monitors/{id} latest stored outcome for a campaign ID (202 while pending)
//	POST /v1/shards        wire.ShardRequest        → wire.ShardResponse (grow the fleet)
//	DELETE /v1/shards/{id} retire one shard at run time (backlog reroutes)
//	GET  /v1/stats         ServerStats as JSON (FleetStats plus scheduler)
//	GET  /healthz          200 while serving, 503 while draining
//
// Backpressure is explicit and non-blocking: every submission goes
// through Fleet.TrySubmit, so a saturated shard queue surfaces as HTTP
// 429 (single; per-outcome error for batch/stream) instead of a
// handler blocked on a full queue. Invalid payloads — malformed JSON,
// unknown fields, schema-version skew, concentrations the execution
// runtime would refuse — are 400 before anything reaches the fleet.
//
// Determinism: the Server preserves the Fleet's contract. Samples are
// accepted in request order (a batch takes contiguous fleet submission
// indices), and each panel's noise stream is seeded from its fleet-wide
// submission index, so a batch POSTed to a fresh server returns
// PanelResult fingerprints byte-identical to the same samples run on a
// local Lab.
//
// Every job the Server submits carries its own completion target: the
// outcome is observed (the Diagnoser sees every panel, the monitor
// store every acquisition) and handed to the waiting handler, whether
// or not the requester is still there. The Server therefore needs no
// exclusive ownership of its Fleet: in-process Submit callers,
// RunPanels batches and a MonitorScheduler consuming MonitorResults can
// share the served fleet. Each job also carries its request's context,
// so a panel or acquisition whose client went away before it reached a
// worker is dropped instead of run.
//
// Lifecycle: Drain stops intake (new submissions get 503) and waits
// for accepted panels; Close additionally shuts the fleet down.
// cmd/labserve wires Drain+Close to SIGTERM for graceful rollouts.
type Server struct {
	fleet *Fleet
	mux   *http.ServeMux
	sched atomic.Pointer[MonitorScheduler]
	diag  *Diagnoser

	// wireErrs counts payloads refused at the wire boundary (400/413):
	// the diagnoser's evidence stream for ClassWireErrors.
	wireErrs atomic.Uint64

	// intake gates acceptance against Drain and Close: a submission
	// holds it from its draining check through the (non-blocking) fleet
	// handoff, so once Drain has flipped draining, every accepted job is
	// inside the fleet drain it starts.
	intake   sync.Mutex
	draining bool

	// monMu guards the monitor outcome store behind GET /v1/monitors:
	// the latest completed outcome per campaign ID, the count of
	// accepted-but-unfinished requests per ID, and the FIFO eviction
	// order that bounds the store at monitorStoreCap IDs.
	monMu    sync.Mutex
	mlatest  map[string]MonitorOutcome
	mpending map[string]int
	morder   []string
}

// monitorStoreCap bounds the monitor outcome store: completed outcomes
// for at most this many distinct campaign IDs are retained, oldest
// first evicted. Population schedulers consume their outcomes through
// the synchronous POST anyway; the store serves ad-hoc lookups.
const monitorStoreCap = 4096

// AttachScheduler attaches a MonitorScheduler whose stats are merged
// into GET /v1/stats and whose campaigns a fouling conviction
// recalibrates. The scheduler may drive this server remotely (through
// Client.MonitorBackend) or drive the served fleet in process, through
// its SubmitMonitor and MonitorResults. Safe against concurrent stats
// requests.
func (s *Server) AttachScheduler(ms *MonitorScheduler) { s.sched.Store(ms) }

// Diagnoser returns the diagnoser serving GET /v1/diagnosis, built over
// the served fleet by NewServer.
func (s *Server) Diagnoser() *Diagnoser { return s.diag }

// NewServer builds the front door over a fleet, with its own
// Diagnoser. Other submitters may keep using the fleet (see the type
// comment).
func NewServer(f *Fleet) (*Server, error) {
	if f == nil {
		return nil, fmt.Errorf("advdiag: NewServer needs a fleet")
	}
	s := &Server{
		fleet:    f,
		diag:     NewDiagnoser(f),
		mlatest:  map[string]MonitorOutcome{},
		mpending: map[string]int{},
	}
	// A fouling conviction forces the attached scheduler (if any, now or
	// later) to recalibrate its campaigns on the convicted target.
	s.diag.recalTrigger = func(target string) int {
		if ms := s.sched.Load(); ms != nil {
			return ms.ForceRecal(target)
		}
		return 0
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/panels", s.handlePanel)
	s.mux.HandleFunc("POST /v1/panels/batch", s.handleBatch)
	s.mux.HandleFunc("POST /v1/panels/stream", s.handleStream)
	s.mux.HandleFunc("POST /v1/monitors", s.handleMonitor)
	s.mux.HandleFunc("GET /v1/monitors/{id}", s.handleMonitorGet)
	s.mux.HandleFunc("POST /v1/shards", s.handleShardAdd)
	s.mux.HandleFunc("DELETE /v1/shards/{id}", s.handleShardRemove)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/diagnosis", s.handleDiagnosis)
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	return s, nil
}

// settleMonitor retires one pending acquisition of a campaign.
func (s *Server) settleMonitor(id string) {
	s.monMu.Lock()
	s.settleMonitorLocked(id)
	s.monMu.Unlock()
}

// settleMonitorLocked is settleMonitor for callers holding monMu.
func (s *Server) settleMonitorLocked(id string) {
	if s.mpending[id] > 1 {
		s.mpending[id]--
	} else {
		delete(s.mpending, id)
	}
}

// storeMonitor records a completed outcome as its campaign's latest
// and settles the pending count, evicting the oldest campaign when the
// store exceeds monitorStoreCap IDs.
func (s *Server) storeMonitor(o MonitorOutcome) {
	s.monMu.Lock()
	defer s.monMu.Unlock()
	s.settleMonitorLocked(o.ID)
	if _, known := s.mlatest[o.ID]; !known {
		s.morder = append(s.morder, o.ID)
		if len(s.morder) > monitorStoreCap {
			delete(s.mlatest, s.morder[0])
			s.morder = s.morder[1:]
		}
	}
	s.mlatest[o.ID] = o
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// submit hands samples to the fleet as one batch with TrySubmit's
// shedding, so the accepted ones take contiguous submission indices.
// Each accepted sample's outcome is observed by the diagnoser and then
// passed to done(i, outcome) from the worker that produced it — done
// must not block. Samples still queued when ctx is done are dropped
// without running. errs[i] is sample i's rejection, nil when accepted.
func (s *Server) submit(ctx context.Context, samples []Sample, done func(int, PanelOutcome)) []error {
	jobs := make([]fleetJob, len(samples))
	for i, sm := range samples {
		jobs[i] = fleetJob{sample: sm, ctx: ctx, done: func(o PanelOutcome) {
			s.diag.ObservePanel(o)
			done(i, o)
		}}
	}
	s.intake.Lock()
	defer s.intake.Unlock()
	if s.draining {
		errs := make([]error, len(samples))
		for i := range errs {
			errs[i] = ErrServerDraining
		}
		return errs
	}
	return s.fleet.submit(jobs, false)
}

// submitMonitor hands one monitor request to the fleet. Its outcome is
// folded into the GET /v1/monitors store and then sent on the returned
// channel (buffered, so delivery never blocks a shard worker). The
// pending count for GET /v1/monitors/{id} is bumped before the fleet
// can possibly answer — the store's decrement must always observe the
// increment — and rolled back on rejection.
func (s *Server) submitMonitor(ctx context.Context, req MonitorRequest) (<-chan MonitorOutcome, error) {
	s.intake.Lock()
	defer s.intake.Unlock()
	if s.draining {
		return nil, ErrServerDraining
	}
	ch := make(chan MonitorOutcome, 1)
	s.monMu.Lock()
	s.mpending[req.ID]++
	s.monMu.Unlock()
	job := fleetJob{monitor: &req, ctx: ctx, mdone: func(o MonitorOutcome) {
		if o.Err != nil && o.Err == ctx.Err() {
			// Dropped unrun: the campaign's latest outcome stands.
			s.settleMonitor(o.ID)
		} else {
			s.storeMonitor(o)
		}
		ch <- o
	}}
	if err := s.fleet.submit([]fleetJob{job}, false)[0]; err != nil {
		s.settleMonitor(req.ID)
		return nil, err
	}
	return ch, nil
}

// submitStatus maps a submission error to its HTTP status.
func submitStatus(err error) int {
	switch {
	case errors.Is(err, ErrFleetSaturated):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrServerDraining), errors.Is(err, ErrFleetClosed):
		return http.StatusServiceUnavailable
	default:
		// Routing errors: no shard serves the sample's panel type.
		return http.StatusUnprocessableEntity
	}
}

func httpError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	http.Error(w, err.Error(), status)
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // the status line is already gone
}

// maxSampleBytes bounds a single wire.Sample (or one NDJSON request
// line); maxBatchBytes bounds a whole batch request body.
// maxOutcomeBytes bounds one outcome the client reads: an outcome echoes
// the sample's ID and adds a result whose size is set by the panel,
// so twice the sample bound leaves ample headroom.
const (
	maxSampleBytes  = 1 << 20
	maxBatchBytes   = 64 << 20
	maxOutcomeBytes = 2 * maxSampleBytes
)

// isBinaryMedia reports whether a Content-Type names the binary codec.
func isBinaryMedia(ct string) bool {
	return ct == wire.BinaryMediaType || strings.HasPrefix(ct, wire.BinaryMediaType+";")
}

// wantsBinaryBody reports whether the request body is binary-framed
// (Content-Type negotiation on the intake side).
func wantsBinaryBody(r *http.Request) bool { return isBinaryMedia(r.Header.Get("Content-Type")) }

// wantsBinaryResponse reports whether the client asked for binary
// outcomes (Accept negotiation on the egress side).
func wantsBinaryResponse(r *http.Request) bool {
	return strings.Contains(r.Header.Get("Accept"), wire.BinaryMediaType)
}

// decodeSampleBody reads and strictly decodes one wire.Sample request
// body, writing the HTTP error itself (and counting the wire error)
// on failure.
func (s *Server) decodeSampleBody(w http.ResponseWriter, r *http.Request) (Sample, bool) {
	body, err := s.readAll(w, r, maxSampleBytes)
	if err != nil {
		return Sample{}, false
	}
	ws, err := wire.UnmarshalSample(body)
	if err != nil {
		s.wireErrs.Add(1)
		httpError(w, http.StatusBadRequest, err)
		return Sample{}, false
	}
	return sampleFromWire(ws), true
}

// readAll slurps a bounded request body, writing the HTTP error itself
// (and counting the wire error) on failure.
func (s *Server) readAll(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, limit))
	if err != nil {
		s.wireErrs.Add(1)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			httpError(w, http.StatusRequestEntityTooLarge, err)
		} else {
			httpError(w, http.StatusBadRequest, err)
		}
		return nil, err
	}
	return data, nil
}

// handlePanel serves POST /v1/panels: one sample in, one outcome out.
// Saturation is 429; a measurement failure is still HTTP 200 with the
// error inside the outcome (the request was served — the sample
// failed).
func (s *Server) handlePanel(w http.ResponseWriter, r *http.Request) {
	sm, ok := s.decodeSampleBody(w, r)
	if !ok {
		return
	}
	ch := make(chan PanelOutcome, 1)
	if err := s.submit(r.Context(), []Sample{sm}, func(_ int, o PanelOutcome) { ch <- o })[0]; err != nil {
		httpError(w, submitStatus(err), err)
		return
	}
	select {
	case out := <-ch:
		w.Header().Set("Content-Type", "application/json")
		writeJSONOutcome(w, toWireOutcome(0, out))
	case <-r.Context().Done():
		// The client went away. If the panel has not started it is
		// dropped without running; otherwise its outcome lands in the
		// buffered channel and is discarded.
	}
}

// handleBatch serves POST /v1/panels/batch: a JSON array of samples in,
// an array of outcomes in request order out. The whole array is
// validated before anything is submitted, so a malformed batch is
// atomic-reject (400). Submission itself is per-sample: outcomes of
// samples shed by backpressure carry the error while the rest of the
// batch proceeds; if every sample was shed the response is 429.
//
// Codec negotiation: a Content-Type of wire.BinaryMediaType switches
// the request body to concatenated binary sample frames, and an Accept
// naming it switches the response to concatenated binary outcome
// frames; the two directions negotiate independently, with the JSON
// shapes as the default on both.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	body, err := s.readAll(w, r, maxBatchBytes)
	if err != nil {
		return
	}
	var samples []Sample
	if wantsBinaryBody(r) {
		br := bytes.NewReader(body)
		for i := 0; ; i++ {
			frame, err := wire.ReadBinaryFrame(br, maxSampleBytes)
			if err == io.EOF {
				break
			}
			if err == nil {
				var ws wire.Sample
				if ws, err = wire.UnmarshalSampleBinary(frame); err == nil {
					samples = append(samples, sampleFromWire(ws))
					continue
				}
			}
			s.wireErrs.Add(1)
			httpError(w, http.StatusBadRequest, fmt.Errorf("sample %d: %w", i, err))
			return
		}
	} else {
		var raw []json.RawMessage
		if err := json.Unmarshal(body, &raw); err != nil {
			s.wireErrs.Add(1)
			httpError(w, http.StatusBadRequest, fmt.Errorf("wire: batch: %w", err))
			return
		}
		samples = make([]Sample, len(raw))
		for i, msg := range raw {
			ws, err := wire.UnmarshalSample(msg)
			if err != nil {
				s.wireErrs.Add(1)
				httpError(w, http.StatusBadRequest, fmt.Errorf("sample %d: %w", i, err))
				return
			}
			samples[i] = sampleFromWire(ws)
		}
	}

	// The batch's accepted samples take contiguous fleet indices in
	// request order, which is what makes a batch reproducible against a
	// local Lab run of the same slice.
	outs := make([]wire.Outcome, len(samples))
	done := make(chan struct{}, len(samples))
	errs := s.submit(r.Context(), samples, func(i int, o PanelOutcome) {
		outs[i] = toWireOutcome(i, o)
		done <- struct{}{}
	})
	accepted := 0
	var firstErr error
	for i, err := range errs {
		if err == nil {
			accepted++
			continue
		}
		outs[i] = errorOutcome(i, samples[i].ID, err)
		if firstErr == nil {
			firstErr = err
		}
	}
	if accepted == 0 && len(samples) > 0 {
		// Nothing entered the fleet; surface the first error's status
		// for the whole request (typically 429 on saturation).
		httpError(w, submitStatus(firstErr), fmt.Errorf("batch rejected: %w", firstErr))
		return
	}
	for range accepted {
		select {
		case <-done:
		case <-r.Context().Done():
			return
		}
	}
	if wantsBinaryResponse(r) {
		w.Header().Set("Content-Type", wire.BinaryMediaType)
		for _, out := range outs {
			writeBinaryOutcome(w, out)
		}
		return
	}
	w.Header().Set("Content-Type", "application/json")
	writeJSONOutcomes(w, outs)
}

// writeJSONOutcome writes one outcome as a line of compact JSON: a
// /v1/panels answer or a /v1/panels/stream line. An outcome the
// encoder refuses (a non-finite float smuggled into a result) degrades
// to an error outcome, as writeBinaryOutcome's does.
func writeJSONOutcome(w io.Writer, out wire.Outcome) {
	w.Write(append(marshalJSONOutcome(out), '\n')) //nolint:errcheck // client gone = answer over
}

// writeJSONOutcomes writes a batch's outcomes as one compact JSON array
// line, each refused outcome degraded in its slot as writeJSONOutcome
// does, so the array always has one element per sample.
func writeJSONOutcomes(w io.Writer, outs []wire.Outcome) {
	buf := []byte{'['}
	for i, out := range outs {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, marshalJSONOutcome(out)...)
	}
	w.Write(append(buf, ']', '\n')) //nolint:errcheck // client gone = answer over
}

// marshalJSONOutcome encodes an outcome through the validating
// wire.MarshalOutcome, falling back to an error outcome in its slot.
func marshalJSONOutcome(out wire.Outcome) []byte {
	data, err := wire.MarshalOutcome(out)
	if err != nil {
		// An error outcome carries no result, so it always encodes.
		data, _ = wire.MarshalOutcome(errorOutcome(out.Seq, out.ID, err))
	}
	return data
}

// writeBinaryOutcome frames one outcome onto a binary response. An
// outcome the binary encoder refuses (a non-finite float smuggled into
// a result — nothing the serving path produces) degrades to an error
// outcome in its slot, so the frame count always matches the request.
func writeBinaryOutcome(w io.Writer, out wire.Outcome) {
	frame, err := wire.MarshalOutcomeBinary(out)
	if err != nil {
		frame, err = wire.MarshalOutcomeBinary(errorOutcome(out.Seq, out.ID, err))
		if err != nil {
			return
		}
	}
	w.Write(frame) //nolint:errcheck // client gone = stream over
}

// handleStream serves POST /v1/panels/stream: samples in, outcomes out,
// written in completion order as panels finish (each carries seq, the
// request position it answers). Per-sample failures — parse errors,
// shed samples — become error outcomes on the stream; the connection
// stays up.
//
// Codec negotiation mirrors the batch endpoint: a Content-Type of
// wire.BinaryMediaType switches the request from NDJSON lines to
// binary sample frames, an Accept naming it switches the response to
// binary outcome frames, and the two directions are independent.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	binOut := wantsBinaryResponse(r)
	if binOut {
		w.Header().Set("Content-Type", wire.BinaryMediaType)
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	// Outcomes start flowing before the request body is fully read;
	// without full duplex the HTTP/1 server discards the unread body at
	// the first write and the stream dies mid-request.
	http.NewResponseController(w).EnableFullDuplex() //nolint:errcheck // HTTP/2 has it unconditionally
	flusher, _ := w.(http.Flusher)

	results := make(chan wire.Outcome, 16)
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for out := range results {
			if binOut {
				writeBinaryOutcome(w, out)
			} else {
				writeJSONOutcome(w, out)
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
	}()

	var wg sync.WaitGroup
	// submitDecoded routes one decoded (or failed) sample; decodeErr
	// covers the wire boundary, submit errors stay service errors.
	submitDecoded := func(seq int, ws wire.Sample, decodeErr error) {
		if decodeErr != nil {
			s.wireErrs.Add(1)
			results <- errorOutcome(seq, "", decodeErr)
			return
		}
		sm := sampleFromWire(ws)
		// The outcome lands in a buffered channel and a relay forwards it
		// to the writer, so a slow client never blocks a shard worker.
		ch := make(chan PanelOutcome, 1)
		if err := s.submit(r.Context(), []Sample{sm}, func(_ int, o PanelOutcome) { ch <- o })[0]; err != nil {
			results <- errorOutcome(seq, sm.ID, err)
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- toWireOutcome(seq, <-ch)
		}()
	}

	seq := 0
	body := http.MaxBytesReader(w, r.Body, maxBatchBytes)
	if wantsBinaryBody(r) {
		br := bufio.NewReader(body)
		for {
			frame, err := wire.ReadBinaryFrame(br, maxSampleBytes)
			if err == io.EOF {
				break
			}
			if err != nil {
				// A torn frame poisons everything after it (framing is
				// lost); answer it and stop intake — already-accepted
				// samples still stream their outcomes.
				s.wireErrs.Add(1)
				results <- errorOutcome(seq, "", fmt.Errorf("wire: stream: %w", err))
				seq++
				break
			}
			ws, err := wire.UnmarshalSampleBinary(frame)
			submitDecoded(seq, ws, err)
			seq++
		}
	} else {
		sc := bufio.NewScanner(body)
		sc.Buffer(make([]byte, 64*1024), maxSampleBytes)
		for sc.Scan() {
			line := sc.Bytes()
			if len(line) == 0 {
				continue // blank lines are NDJSON keep-alives
			}
			ws, err := wire.UnmarshalSample(line)
			submitDecoded(seq, ws, err)
			seq++
		}
		if err := sc.Err(); err != nil {
			results <- errorOutcome(seq, "", fmt.Errorf("wire: stream: %w", err))
		}
	}
	wg.Wait()
	close(results)
	<-writerDone
}

// handleMonitor serves POST /v1/monitors: one monitor request in, one
// outcome out, synchronously. Saturation is 429; a measurement failure
// is still HTTP 200 with the error inside the outcome.
func (s *Server) handleMonitor(w http.ResponseWriter, r *http.Request) {
	body, err := s.readAll(w, r, maxSampleBytes)
	if err != nil {
		return
	}
	wreq, err := wire.UnmarshalMonitorRequest(body)
	if err != nil {
		s.wireErrs.Add(1)
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ch, err := s.submitMonitor(r.Context(), monitorRequestFromWire(wreq))
	if err != nil {
		httpError(w, submitStatus(err), err)
		return
	}
	select {
	case out := <-ch:
		writeJSON(w, toWireMonitorOutcome(out))
	case <-r.Context().Done():
		// The client went away. If the acquisition has not started it is
		// dropped without running; either way its outcome (the context
		// error, when dropped) settles the GET /v1/monitors store.
	}
}

// handleMonitorGet serves GET /v1/monitors/{id}: the latest completed
// outcome for a campaign ID (200), 202 while accepted requests are
// still in flight and nothing has completed yet, 404 for an unknown
// ID. The store is bounded (monitorStoreCap campaigns, oldest
// evicted), so a 404 can also mean "evicted long ago".
func (s *Server) handleMonitorGet(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.monMu.Lock()
	out, ok := s.mlatest[id]
	pending := s.mpending[id]
	s.monMu.Unlock()
	if ok {
		writeJSON(w, toWireMonitorOutcome(out))
		return
	}
	if pending > 0 {
		w.Header().Set("Retry-After", "1")
		http.Error(w, fmt.Sprintf("monitor %q: %d acquisitions in flight", id, pending), http.StatusAccepted)
		return
	}
	http.Error(w, fmt.Sprintf("monitor %q: no stored outcome", id), http.StatusNotFound)
}

// handleShardAdd serves POST /v1/shards: design a platform for the
// requested targets and grow the served fleet by one shard, under live
// load. The response carries the new shard's index. A draining server
// refuses (503); a target list the platform designer cannot realize is
// 422. With a zero request seed the platform is designed with the
// fleet's own seed — the identical-platform configuration under which
// every result replays bit-identically on the new shard.
func (s *Server) handleShardAdd(w http.ResponseWriter, r *http.Request) {
	body, err := s.readAll(w, r, maxSampleBytes)
	if err != nil {
		return
	}
	req, err := wire.UnmarshalShardRequest(body)
	if err != nil {
		s.wireErrs.Add(1)
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if s.isDraining() {
		httpError(w, http.StatusServiceUnavailable, ErrServerDraining)
		return
	}
	seed := req.Seed
	if seed == 0 {
		seed = s.fleet.seed
	}
	p, err := DesignPlatform(req.Targets, WithPlatformSeed(seed))
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	idx, err := s.fleet.AddShard(p)
	if err != nil {
		httpError(w, submitStatus(err), err)
		return
	}
	writeJSON(w, wire.ShardResponse{Schema: wire.SchemaVersion, Shard: idx})
}

// handleShardRemove serves DELETE /v1/shards/{id}: retire one shard at
// run time. The shard's backlog reroutes to siblings before the
// response is written, so success means zero panels were lost to the
// removal. An unknown or already-removed index is 404; a closed fleet
// is 503.
func (s *Server) handleShardRemove(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil || id < 0 {
		httpError(w, http.StatusNotFound, fmt.Errorf("advdiag: no shard %q", r.PathValue("id")))
		return
	}
	if err := s.fleet.RemoveShard(id); err != nil {
		if errors.Is(err, ErrFleetClosed) {
			httpError(w, http.StatusServiceUnavailable, err)
			return
		}
		httpError(w, http.StatusNotFound, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ServerStats is the GET /v1/stats snapshot: the fleet's counters
// (flattened — a FleetStats decoder still parses it) plus, when a
// scheduler is attached, its population-campaign stats.
type ServerStats struct {
	FleetStats
	// Scheduler is the attached MonitorScheduler's snapshot; nil (and
	// absent from the JSON) when the server runs without one.
	Scheduler *MonitorSchedulerStats `json:"scheduler,omitempty"`
	// WireErrors counts payloads this server refused at the wire
	// boundary (malformed JSON, unknown fields, schema skew, oversized
	// bodies) — the diagnoser's ClassWireErrors signal.
	WireErrors uint64 `json:"wire_errors,omitempty"`
	// Draining reports the server refusing intake for shutdown.
	Draining bool `json:"draining,omitempty"`
}

// Stats returns the server's aggregate snapshot — the same value GET
// /v1/stats serves.
func (s *Server) Stats() ServerStats {
	st := ServerStats{FleetStats: s.fleet.Stats(), WireErrors: s.wireErrs.Load()}
	if ms := s.sched.Load(); ms != nil {
		snap := ms.Stats()
		st.Scheduler = &snap
	}
	st.Draining = s.isDraining()
	return st
}

// handleStats serves GET /v1/stats: the ServerStats snapshot as JSON —
// submitted/completed/rejected counters for both panels and monitors
// (rejects include every 429 this server returned), per-shard queue
// depths, Lab stats, and the attached scheduler's snapshot if any.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.Stats())
}

// handleDiagnosis serves GET /v1/diagnosis: every request feeds the
// current stats snapshot to the diagnoser and returns its verdict —
// polling the endpoint IS the observation cadence, so a dashboard
// hitting it periodically is all the wiring automated root-cause
// analysis needs. A request that convicts a shard also quarantines it,
// and the returned report says so.
func (s *Server) handleDiagnosis(w http.ResponseWriter, _ *http.Request) {
	s.diag.Observe(s.Stats())
	writeJSON(w, toWireDiagnosis(s.diag.Diagnose()))
}

// handleHealth serves GET /healthz: 200 while accepting work, 503 once
// draining — load balancers stop routing before the listener goes
// away.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.isDraining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// isDraining reports whether intake has stopped.
func (s *Server) isDraining() bool {
	s.intake.Lock()
	defer s.intake.Unlock()
	return s.draining
}

// stopIntake refuses every later submission (503).
func (s *Server) stopIntake() {
	s.intake.Lock()
	s.draining = true
	s.intake.Unlock()
}

// Drain stops accepting new submissions (they get 503) and blocks
// until every accepted panel has been measured and delivered. In-
// flight requests complete normally.
func (s *Server) Drain() {
	s.stopIntake()
	s.fleet.Drain()
}

// Close drains the server and shuts the fleet down; every accepted
// outcome has reached its handler when it returns. The first Close
// returns nil; later ones return ErrFleetClosed (from the fleet).
func (s *Server) Close() error {
	s.stopIntake()
	return s.fleet.Close()
}
