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
	"net/url"
	"strings"
	"time"

	"advdiag/internal/analog"
	"advdiag/wire"
)

// Client talks to a Server over HTTP, speaking the wire format. It is
// the remote twin of a Lab's batch API: RunPanel/RunPanels/StreamPanels
// return the same PanelOutcome values a local Lab produces — including
// byte-identical PanelResult fingerprints, because the wire codecs are
// lossless for float64 and the server preserves submission order.
//
// Batch and stream panel traffic travels in the binary framing
// (wire.BinaryMediaType) both ways; single panels and monitor requests
// use JSON.
//
// A Client is safe for concurrent use; it holds no per-request state.
type Client struct {
	base string
	hc   *http.Client
}

// ClientOption customizes a Client.
type ClientOption func(*Client)

// WithHTTPClient substitutes the transport (timeouts, TLS, proxies,
// or an httptest server's client). Default: http.DefaultClient.
func WithHTTPClient(hc *http.Client) ClientOption {
	return func(c *Client) { c.hc = hc }
}

// NewClient builds a client for the server at baseURL (scheme://host[:port],
// no trailing path).
func NewClient(baseURL string, opts ...ClientOption) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: http.DefaultClient}
	for _, opt := range opts {
		opt(c)
	}
	return c
}

// BaseURL reports the server address the client was built with.
func (c *Client) BaseURL() string { return c.base }

// remoteError maps an HTTP error response to the package's sentinel
// errors where one exists, so remote and local callers handle
// saturation and shutdown identically:
//
//	429 → ErrFleetSaturated    503 → ErrServerDraining
func remoteError(status int, body []byte) error {
	msg := strings.TrimSpace(string(body))
	switch status {
	case http.StatusTooManyRequests:
		return fmt.Errorf("advdiag: server %s: %w", msg, ErrFleetSaturated)
	case http.StatusServiceUnavailable:
		return fmt.Errorf("advdiag: server %s: %w", msg, ErrServerDraining)
	default:
		return fmt.Errorf("advdiag: server returned %d: %s", status, msg)
	}
}

// post sends a POST with the given body codec. A binary request also
// asks for binary outcomes.
func (c *Client) post(ctx context.Context, path, contentType string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", contentType)
	if contentType == wire.BinaryMediaType {
		req.Header.Set("Accept", wire.BinaryMediaType)
	}
	return c.hc.Do(req)
}

// requireBinary refuses a 200 answer that is not in the binary
// framing the client asked for; it is never decoded as another codec.
func requireBinary(resp *http.Response) error {
	if ct := resp.Header.Get("Content-Type"); !isBinaryMedia(ct) {
		return fmt.Errorf("advdiag: server answered %q, want %s", ct, wire.BinaryMediaType)
	}
	return nil
}

// readOutcomeFrames decodes binary outcome frames from r until a clean
// end of stream, handing each to fn.
func readOutcomeFrames(r io.Reader, fn func(wire.Outcome)) error {
	for {
		frame, err := wire.ReadBinaryFrame(r, maxOutcomeBytes)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		wo, err := wire.UnmarshalOutcomeBinary(frame)
		if err != nil {
			return err
		}
		fn(wo)
	}
}

func (c *Client) get(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	return c.hc.Do(req)
}

func (c *Client) del(ctx context.Context, path string) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.base+path, nil)
	if err != nil {
		return nil, err
	}
	return c.hc.Do(req)
}

// Health checks GET /healthz: nil while the server accepts work.
func (c *Client) Health(ctx context.Context) error {
	resp, err := c.get(ctx, "/healthz")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return remoteError(resp.StatusCode, body)
	}
	return nil
}

// Stats fetches the server's aggregate snapshot: the fleet counters
// plus, when the server runs an attached scheduler, its population-
// campaign stats (the FleetStats fields are promoted, so existing
// callers read them unchanged).
func (c *Client) Stats(ctx context.Context) (ServerStats, error) {
	resp, err := c.get(ctx, "/v1/stats")
	if err != nil {
		return ServerStats{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return ServerStats{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return ServerStats{}, remoteError(resp.StatusCode, body)
	}
	var st ServerStats
	if err := json.Unmarshal(body, &st); err != nil {
		return ServerStats{}, fmt.Errorf("advdiag: stats: %w", err)
	}
	return st, nil
}

// Diagnosis fetches GET /v1/diagnosis: the server's current automated
// root-cause verdict. Every call also advances the server-side
// diagnoser by one observation, so a client polling this method is
// what drives rate-anomaly detection (stalls, saturation) — and, with
// auto-quarantine on, what triggers the quarantine itself.
func (c *Client) Diagnosis(ctx context.Context) (Diagnosis, error) {
	resp, err := c.get(ctx, "/v1/diagnosis")
	if err != nil {
		return Diagnosis{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return Diagnosis{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return Diagnosis{}, remoteError(resp.StatusCode, body)
	}
	wd, err := wire.UnmarshalDiagnosis(body)
	if err != nil {
		return Diagnosis{}, fmt.Errorf("advdiag: diagnosis: %w", err)
	}
	return diagnosisFromWire(wd), nil
}

// AddShard grows the served fleet by one shard measuring the given
// targets, at run time and under live load (POST /v1/shards). The
// server designs the platform with the fleet's own seed, so on an
// identical-target fleet the new shard produces bit-identical results
// to its siblings. Returns the new shard's index.
func (c *Client) AddShard(ctx context.Context, targets []string) (int, error) {
	data, err := wire.MarshalShardRequest(wire.ShardRequest{Targets: targets})
	if err != nil {
		return 0, err
	}
	resp, err := c.post(ctx, "/v1/shards", "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return 0, remoteError(resp.StatusCode, body)
	}
	wr, err := wire.UnmarshalShardResponse(body)
	if err != nil {
		return 0, err
	}
	return wr.Shard, nil
}

// RemoveShard retires one shard of the served fleet at run time
// (DELETE /v1/shards/{id}). Success means the shard left routing and
// its backlog was rerouted to siblings with zero panels lost.
func (c *Client) RemoveShard(ctx context.Context, shard int) error {
	resp, err := c.del(ctx, fmt.Sprintf("/v1/shards/%d", shard))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return remoteError(resp.StatusCode, body)
	}
	return nil
}

// RunPanel submits one sample and waits for its outcome. A saturated
// fleet surfaces as ErrFleetSaturated (check with errors.Is and back
// off); a draining server as ErrServerDraining. A per-sample
// measurement failure comes back inside the outcome's Err, exactly as
// it would from a local Lab.
func (c *Client) RunPanel(ctx context.Context, s Sample) (PanelOutcome, error) {
	data, err := wire.MarshalSample(toWireSample(s))
	if err != nil {
		return PanelOutcome{}, err
	}
	resp, err := c.post(ctx, "/v1/panels", "application/json", bytes.NewReader(data))
	if err != nil {
		return PanelOutcome{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return PanelOutcome{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return PanelOutcome{}, remoteError(resp.StatusCode, body)
	}
	wo, err := wire.UnmarshalOutcome(body)
	if err != nil {
		return PanelOutcome{}, err
	}
	return outcomeFromWire(wo), nil
}

// RunPanels submits a batch and returns one outcome per sample in
// request order — the remote counterpart of Lab.RunPanels. Per-sample
// failures (including samples shed by backpressure mid-batch) land in
// the outcome's Err; a batch rejected wholesale maps to the sentinel
// errors like RunPanel.
func (c *Client) RunPanels(ctx context.Context, samples []Sample) ([]PanelOutcome, error) {
	var data []byte
	for i, s := range samples {
		frame, err := wire.MarshalSampleBinary(toWireSample(s))
		if err != nil {
			return nil, fmt.Errorf("advdiag: batch sample %d: %w", i, err)
		}
		data = append(data, frame...)
	}
	resp, err := c.post(ctx, "/v1/panels/batch", wire.BinaryMediaType, bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, remoteError(resp.StatusCode, body)
	}
	if err := requireBinary(resp); err != nil {
		return nil, err
	}
	out := make([]PanelOutcome, 0, len(samples))
	err = readOutcomeFrames(bytes.NewReader(body), func(wo wire.Outcome) {
		out = append(out, outcomeFromWire(wo))
	})
	if err != nil {
		return nil, fmt.Errorf("advdiag: batch response: %w", err)
	}
	if len(out) != len(samples) {
		return nil, fmt.Errorf("advdiag: batch response has %d outcomes for %d samples", len(out), len(samples))
	}
	return out, nil
}

// StreamPanels submits samples over the streaming endpoint and invokes
// fn for each outcome as the server reports it, in completion order.
// seq is the outcome's position in the submitted slice. fn runs on the
// caller's goroutine; StreamPanels returns after the server closes the
// stream (every sample answered) or the context ends.
func (c *Client) StreamPanels(ctx context.Context, samples []Sample, fn func(seq int, o PanelOutcome)) error {
	frames := make([][]byte, len(samples))
	for i, s := range samples {
		frame, err := wire.MarshalSampleBinary(toWireSample(s))
		if err != nil {
			return err
		}
		frames[i] = frame
	}
	// Stream the body through a pipe instead of buffering it: the
	// server answers in completion order while the request is still
	// being written, so a client that finishes uploading before reading
	// deadlocks against the server's bounded outcome queue once the
	// cohort outgrows the transport buffers. Frames are coalesced
	// through a bufio.Writer so the wire sees few large chunks instead
	// of one pipe rendezvous (and one TCP segment) per sample — the
	// writer goroutine still overlaps the response reads below, so the
	// backpressure story is unchanged.
	pr, pw := io.Pipe()
	go func() {
		bw := bufio.NewWriterSize(pw, 32*1024)
		for _, frame := range frames {
			if _, err := bw.Write(frame); err != nil {
				pw.CloseWithError(err)
				return
			}
		}
		if err := bw.Flush(); err != nil {
			pw.CloseWithError(err)
			return
		}
		pw.Close()
	}()
	resp, err := c.post(ctx, "/v1/panels/stream", wire.BinaryMediaType, pr)
	if err != nil {
		pr.Close() //nolint:errcheck // unblocks the writer goroutine
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return remoteError(resp.StatusCode, body)
	}
	if err := requireBinary(resp); err != nil {
		return err
	}
	n := 0
	err = readOutcomeFrames(bufio.NewReaderSize(resp.Body, 64*1024), func(wo wire.Outcome) {
		fn(wo.Seq, outcomeFromWire(wo))
		n++
	})
	if err != nil {
		return err
	}
	if n != len(samples) {
		return fmt.Errorf("advdiag: stream answered %d of %d samples", n, len(samples))
	}
	return nil
}

// ErrMonitorPending is the sentinel GetMonitor returns while accepted
// acquisitions for the campaign are still in flight and none has
// completed yet (HTTP 202) — poll again shortly.
var ErrMonitorPending = errors.New("advdiag: monitor outcome pending")

// RunMonitor submits one monitoring acquisition and waits for its
// outcome — the remote twin of Lab.RunMonitor. Saturation surfaces as
// ErrFleetSaturated, a draining server as ErrServerDraining; a
// measurement failure comes back inside the outcome's Err. Because the
// request carries its own noise seed, the returned trace is
// byte-identical to a local run of the same request (the wire format
// is lossless for float64) — MonitorResult.Fingerprint proves it.
func (c *Client) RunMonitor(ctx context.Context, req MonitorRequest) (MonitorOutcome, error) {
	data, err := wire.MarshalMonitorRequest(toWireMonitorRequest(req))
	if err != nil {
		return MonitorOutcome{}, err
	}
	resp, err := c.post(ctx, "/v1/monitors", "application/json", bytes.NewReader(data))
	if err != nil {
		return MonitorOutcome{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return MonitorOutcome{}, err
	}
	if resp.StatusCode != http.StatusOK {
		return MonitorOutcome{}, remoteError(resp.StatusCode, body)
	}
	wo, err := wire.UnmarshalMonitorOutcome(body)
	if err != nil {
		return MonitorOutcome{}, err
	}
	return monitorOutcomeFromWire(wo), nil
}

// GetMonitor fetches the latest completed outcome stored for a
// campaign ID, which may hold any characters (it travels as one
// escaped path segment). ErrMonitorPending means acquisitions are in
// flight but none has completed; any other non-200 (including an
// unknown or evicted ID) is an error.
func (c *Client) GetMonitor(ctx context.Context, id string) (MonitorOutcome, error) {
	resp, err := c.get(ctx, "/v1/monitors/"+url.PathEscape(id))
	if err != nil {
		return MonitorOutcome{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return MonitorOutcome{}, err
	}
	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusAccepted:
		return MonitorOutcome{}, fmt.Errorf("advdiag: %s: %w", strings.TrimSpace(string(body)), ErrMonitorPending)
	default:
		return MonitorOutcome{}, remoteError(resp.StatusCode, body)
	}
	wo, err := wire.UnmarshalMonitorOutcome(body)
	if err != nil {
		return MonitorOutcome{}, err
	}
	return monitorOutcomeFromWire(wo), nil
}

// MonitorBackend adapts the client into the MonitorScheduler's backend
// interface, so one scheduler drives a remote labserve exactly as it
// drives an in-process Fleet. Each submission runs as its own
// goroutine POSTing /v1/monitors (the endpoint is synchronous); a 429
// is retried with backoff until the server accepts — the remote twin
// of Fleet.SubmitMonitor's blocking backpressure — and any other
// transport or server error is delivered as a failed outcome, never
// lost. The context cancels in-flight requests.
//
// Both SubmitMonitor and TrySubmitMonitor accept immediately (the
// queueing happens server-side), so a scheduler over this backend
// never counts sheds locally; the server's rejected counter holds
// them.
func (c *Client) MonitorBackend(ctx context.Context) MonitorBackend {
	return &clientMonitorBackend{c: c, ctx: ctx, results: make(chan MonitorOutcome, 256)}
}

type clientMonitorBackend struct {
	c       *Client
	ctx     context.Context
	results chan MonitorOutcome
}

func (b *clientMonitorBackend) SubmitMonitor(req MonitorRequest) error {
	go func() {
		backoff := 5 * time.Millisecond
		for {
			out, err := b.c.RunMonitor(b.ctx, req)
			if errors.Is(err, ErrFleetSaturated) {
				select {
				case <-time.After(backoff):
				case <-b.ctx.Done():
					err = b.ctx.Err()
					b.results <- MonitorOutcome{Index: -1, ID: req.ID, Tick: req.Tick, Shard: -1, Err: err}
					return
				}
				if backoff *= 2; backoff > 200*time.Millisecond {
					backoff = 200 * time.Millisecond
				}
				continue
			}
			if err != nil {
				out = MonitorOutcome{Index: -1, ID: req.ID, Tick: req.Tick, Shard: -1, Err: err}
			}
			b.results <- out
			return
		}
	}()
	return nil
}

func (b *clientMonitorBackend) TrySubmitMonitor(req MonitorRequest) error {
	return b.SubmitMonitor(req)
}

func (b *clientMonitorBackend) MonitorResults() <-chan MonitorOutcome { return b.results }

// --- wire bridge -----------------------------------------------------
//
// The conversions between the root types and their wire twins. The
// structs are field-for-field identical, so these cannot change any
// bit the PanelResult fingerprint hashes (pinned by
// TestWireBridgeFingerprint).

func toWireSample(s Sample) wire.Sample {
	return wire.Sample{Schema: wire.SchemaVersion, ID: s.ID, Concentrations: s.Concentrations}
}

func sampleFromWire(ws wire.Sample) Sample {
	return Sample{ID: ws.ID, Concentrations: ws.Concentrations}
}

func toWireResult(pr PanelResult) wire.PanelResult {
	out := wire.PanelResult{Schema: wire.SchemaVersion, PanelSeconds: pr.PanelSeconds, NoiseModel: analog.NoiseModelVersion}
	if len(pr.Readings) > 0 {
		out.Readings = make([]wire.Reading, len(pr.Readings))
		for i, r := range pr.Readings {
			out.Readings[i] = wire.Reading(r)
		}
	}
	return out
}

func resultFromWire(wr wire.PanelResult) PanelResult {
	out := PanelResult{PanelSeconds: wr.PanelSeconds}
	if len(wr.Readings) > 0 {
		out.Readings = make([]TargetReading, len(wr.Readings))
		for i, r := range wr.Readings {
			out.Readings[i] = TargetReading(r)
		}
	}
	return out
}

// toWireOutcome renders a service outcome for the wire; seq is the
// sample's position within the request being answered.
func toWireOutcome(seq int, o PanelOutcome) wire.Outcome {
	wo := wire.Outcome{
		Schema:                wire.SchemaVersion,
		Seq:                   seq,
		Index:                 o.Index,
		ID:                    o.ID,
		Shard:                 o.Shard,
		ScheduledStartSeconds: o.ScheduledStartSeconds,
		WallSeconds:           o.WallSeconds,
	}
	if o.Err != nil {
		wo.Error = o.Err.Error()
	} else {
		res := toWireResult(o.Result)
		wo.Result = &res
	}
	return wo
}

// errorOutcome is the wire form of a sample that never entered the
// fleet (parse failure, backpressure shed, draining server).
func errorOutcome(seq int, id string, err error) wire.Outcome {
	return wire.Outcome{Schema: wire.SchemaVersion, Seq: seq, Index: -1, ID: id, Shard: -1, Error: err.Error()}
}

func outcomeFromWire(wo wire.Outcome) PanelOutcome {
	out := PanelOutcome{
		Index:                 wo.Index,
		ID:                    wo.ID,
		Shard:                 wo.Shard,
		ScheduledStartSeconds: wo.ScheduledStartSeconds,
		WallSeconds:           wo.WallSeconds,
	}
	if wo.Error != "" {
		out.Err = errors.New(wo.Error)
	} else if wo.Result != nil {
		out.Result = resultFromWire(*wo.Result)
	}
	return out
}

func toWireMonitorRequest(r MonitorRequest) wire.MonitorRequest {
	out := wire.MonitorRequest{
		Schema:          wire.SchemaVersion,
		ID:              r.ID,
		Tick:            r.Tick,
		Target:          r.Target,
		ConcentrationMM: r.ConcentrationMM,
		DurationSeconds: r.DurationSeconds,
		BaselineSeconds: r.BaselineSeconds,
		AgeHours:        r.AgeHours,
		Polymer:         r.Polymer,
		Seed:            r.Seed,
	}
	if len(r.Injections) > 0 {
		out.Injections = make([]wire.Injection, len(r.Injections))
		for i, inj := range r.Injections {
			out.Injections[i] = wire.Injection(inj)
		}
	}
	return out
}

func monitorRequestFromWire(wr wire.MonitorRequest) MonitorRequest {
	out := MonitorRequest{
		ID:              wr.ID,
		Tick:            wr.Tick,
		Target:          wr.Target,
		ConcentrationMM: wr.ConcentrationMM,
		DurationSeconds: wr.DurationSeconds,
		BaselineSeconds: wr.BaselineSeconds,
		AgeHours:        wr.AgeHours,
		Polymer:         wr.Polymer,
		Seed:            wr.Seed,
	}
	if len(wr.Injections) > 0 {
		out.Injections = make([]InjectionEvent, len(wr.Injections))
		for i, inj := range wr.Injections {
			out.Injections[i] = InjectionEvent(inj)
		}
	}
	return out
}

func toWireMonitorResult(mr MonitorResult) wire.MonitorResult {
	return wire.MonitorResult{
		Schema:            wire.SchemaVersion,
		TimesSeconds:      mr.TimesSeconds,
		CurrentsMicroAmps: mr.CurrentsMicroAmps,
		T90Seconds:        mr.T90Seconds,
		TransientSeconds:  mr.TransientSeconds,
		BaselineMicroAmps: mr.BaselineMicroAmps,
		SteadyMicroAmps:   mr.SteadyMicroAmps,
		Settled:           mr.Settled,
		StepMicroAmps:     mr.StepMicroAmps,
		EstimatedMM:       mr.EstimatedMM,
	}
}

func monitorResultFromWire(wr wire.MonitorResult) MonitorResult {
	return MonitorResult{
		TimesSeconds:      wr.TimesSeconds,
		CurrentsMicroAmps: wr.CurrentsMicroAmps,
		T90Seconds:        wr.T90Seconds,
		TransientSeconds:  wr.TransientSeconds,
		BaselineMicroAmps: wr.BaselineMicroAmps,
		SteadyMicroAmps:   wr.SteadyMicroAmps,
		Settled:           wr.Settled,
		StepMicroAmps:     wr.StepMicroAmps,
		EstimatedMM:       wr.EstimatedMM,
	}
}

func toWireMonitorOutcome(o MonitorOutcome) wire.MonitorOutcome {
	wo := wire.MonitorOutcome{
		Schema:      wire.SchemaVersion,
		Index:       o.Index,
		ID:          o.ID,
		Tick:        o.Tick,
		Shard:       o.Shard,
		WallSeconds: o.WallSeconds,
	}
	if o.Err != nil {
		wo.Error = o.Err.Error()
	} else {
		res := toWireMonitorResult(o.Result)
		wo.Result = &res
	}
	return wo
}

func monitorOutcomeFromWire(wo wire.MonitorOutcome) MonitorOutcome {
	out := MonitorOutcome{
		Index:       wo.Index,
		ID:          wo.ID,
		Tick:        wo.Tick,
		Shard:       wo.Shard,
		WallSeconds: wo.WallSeconds,
	}
	if wo.Error != "" {
		out.Err = errors.New(wo.Error)
	} else if wo.Result != nil {
		out.Result = monitorResultFromWire(*wo.Result)
	}
	return out
}
