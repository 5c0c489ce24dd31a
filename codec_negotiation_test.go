package advdiag_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"advdiag"
	"advdiag/wire"
)

// TestCodecMatrixDeterminism drives the same cohort through every
// codec and endpoint the server speaks — the Go client's binary batch
// and binary stream, and raw JSON-array batch and NDJSON stream
// requests as curl would send them — each on a fresh server, so the
// fleet's submission indices start at 0 and every outcome's
// fingerprint must equal the local Lab's bit-for-bit.
func TestCodecMatrixDeterminism(t *testing.T) {
	samples := mixedCohort(10)
	local := localFingerprints(t, samples)

	type leg struct {
		endpoint string
		run      func(t *testing.T, c *advdiag.Client) map[int]uint64
	}
	codecs := []struct {
		name string
		legs []leg
	}{
		{"binary", []leg{{"batch", func(t *testing.T, c *advdiag.Client) map[int]uint64 {
			outs, err := c.RunPanels(context.Background(), samples)
			if err != nil {
				t.Fatal(err)
			}
			fps := map[int]uint64{}
			for i, o := range outs {
				if o.Err != nil {
					t.Fatalf("sample %d: %v", i, o.Err)
				}
				fps[i] = o.Result.Fingerprint()
			}
			return fps
		}}, {"stream", func(t *testing.T, c *advdiag.Client) map[int]uint64 {
			fps := map[int]uint64{}
			err := c.StreamPanels(context.Background(), samples, func(seq int, o advdiag.PanelOutcome) {
				if o.Err != nil {
					t.Errorf("sample %d: %v", seq, o.Err)
					return
				}
				fps[seq] = o.Result.Fingerprint()
			})
			if err != nil {
				t.Fatal(err)
			}
			return fps
		}}}},
		{"json", []leg{{"batch", func(t *testing.T, c *advdiag.Client) map[int]uint64 {
			elems := make([]json.RawMessage, len(samples))
			for i, s := range samples {
				elems[i] = marshalWireSample(t, s)
			}
			body, err := json.Marshal(elems)
			if err != nil {
				t.Fatal(err)
			}
			data := postRaw(t, c.BaseURL()+"/v1/panels/batch", "application/json", body)
			var outs []json.RawMessage
			if err := json.Unmarshal(data, &outs); err != nil {
				t.Fatalf("batch response: %v", err)
			}
			return jsonFingerprints(t, outs)
		}}, {"stream", func(t *testing.T, c *advdiag.Client) map[int]uint64 {
			var body []byte
			for _, s := range samples {
				body = append(append(body, marshalWireSample(t, s)...), '\n')
			}
			data := postRaw(t, c.BaseURL()+"/v1/panels/stream", "application/x-ndjson", body)
			var lines []json.RawMessage
			for _, line := range bytes.Split(bytes.TrimSpace(data), []byte("\n")) {
				lines = append(lines, line)
			}
			return jsonFingerprints(t, lines)
		}}}},
	}
	for _, codec := range codecs {
		t.Run(codec.name, func(t *testing.T) {
			for _, leg := range codec.legs {
				t.Run(leg.endpoint, func(t *testing.T) {
					_, client := newTestServer(t, 2, advdiag.WithFleetWorkers(2), advdiag.WithFleetQueueDepth(32))
					fps := leg.run(t, client)
					if len(fps) != len(samples) {
						t.Fatalf("answered %d of %d samples", len(fps), len(samples))
					}
					for i, want := range local {
						if fp, ok := fps[i]; !ok || fp != want {
							t.Fatalf("sample %d: fingerprint %x (answered %v) != local %x", i, fp, ok, want)
						}
					}
				})
			}
		})
	}
}

func marshalWireSample(t *testing.T, s advdiag.Sample) []byte {
	t.Helper()
	data, err := wire.MarshalSample(wire.Sample{ID: s.ID, Concentrations: s.Concentrations})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// postRaw POSTs body with the given JSON content type and returns the
// 200 response body.
func postRaw(t *testing.T, url, contentType string, body []byte) []byte {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	if ct := resp.Header.Get("Content-Type"); strings.Contains(ct, wire.BinaryMediaType) {
		t.Fatalf("JSON request answered in %s", ct)
	}
	return data
}

// jsonFingerprints strictly decodes JSON outcomes and returns each
// result's fingerprint keyed by the outcome's request position.
func jsonFingerprints(t *testing.T, outs []json.RawMessage) map[int]uint64 {
	t.Helper()
	fps := map[int]uint64{}
	for _, raw := range outs {
		wo, err := wire.UnmarshalOutcome(raw)
		if err != nil {
			t.Fatalf("outcome %s: %v", raw, err)
		}
		if wo.Error != "" || wo.Result == nil {
			t.Fatalf("sample %d: %q", wo.Seq, wo.Error)
		}
		pr := advdiag.PanelResult{PanelSeconds: wo.Result.PanelSeconds}
		for _, r := range wo.Result.Readings {
			pr.Readings = append(pr.Readings, advdiag.TargetReading(r))
		}
		fps[wo.Seq] = pr.Fingerprint()
	}
	return fps
}

// TestClientRefusesNonBinaryAnswer: the client sends and asks for the
// binary framing on its batch and stream calls, and a 200 answer in
// any other codec is an error — it is never decoded as JSON.
func TestClientRefusesNonBinaryAnswer(t *testing.T) {
	samples := mixedCohort(2)
	// A well-formed JSON batch answer, so only the codec check can refuse it.
	answer, err := json.Marshal([]wire.Outcome{{Schema: wire.SchemaVersion, Error: "shed"}, {Schema: wire.SchemaVersion, Seq: 1, Error: "shed"}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if ct, accept := r.Header.Get("Content-Type"), r.Header.Get("Accept"); ct != wire.BinaryMediaType || accept != wire.BinaryMediaType {
			t.Errorf("%s sent Content-Type %q, Accept %q; want %s for both", r.URL.Path, ct, accept, wire.BinaryMediaType)
		}
		io.Copy(io.Discard, r.Body) //nolint:errcheck // the request is only inspected
		w.Header().Set("Content-Type", "application/json")
		w.Write(answer) //nolint:errcheck // the client's verdict is what is tested
	}))
	defer ts.Close()
	c := advdiag.NewClient(ts.URL, advdiag.WithHTTPClient(ts.Client()))

	if outs, err := c.RunPanels(context.Background(), samples); err == nil || !strings.Contains(err.Error(), wire.BinaryMediaType) {
		t.Fatalf("batch: want a codec error, got %v (%d outcomes)", err, len(outs))
	}
	called := false
	err = c.StreamPanels(context.Background(), samples, func(int, advdiag.PanelOutcome) { called = true })
	if err == nil || !strings.Contains(err.Error(), wire.BinaryMediaType) || called {
		t.Fatalf("stream: want a codec error before any outcome, got %v (callback ran: %v)", err, called)
	}
}

// TestBinaryWireStrictHTTP pins the strict binary boundary over live
// HTTP: schema skew and truncation on the batch endpoint are 400 with
// the wire message, and a torn stream frame comes back as an in-band
// error outcome without killing the already-accepted samples.
func TestBinaryWireStrictHTTP(t *testing.T) {
	_, client := newTestServer(t, 1, advdiag.WithFleetWorkers(1), advdiag.WithFleetQueueDepth(8))
	base := client.BaseURL()
	good, err := wire.MarshalSampleBinary(wire.Sample{ID: "p-1", Concentrations: map[string]float64{"glucose": 5}})
	if err != nil {
		t.Fatal(err)
	}

	post := func(t *testing.T, path string, body []byte) (*http.Response, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, base+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", wire.BinaryMediaType)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, data
	}

	t.Run("batch schema skew", func(t *testing.T) {
		skew := append([]byte(nil), good...)
		binary.LittleEndian.PutUint16(skew[4:], 9)
		resp, body := post(t, "/v1/panels/batch", skew)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "schema 9") {
			t.Fatalf("want 400 schema error, got %d %q", resp.StatusCode, body)
		}
	})

	t.Run("batch truncation", func(t *testing.T) {
		resp, body := post(t, "/v1/panels/batch", good[:len(good)-3])
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "truncated") {
			t.Fatalf("want 400 truncation error, got %d %q", resp.StatusCode, body)
		}
	})

	t.Run("stream torn frame", func(t *testing.T) {
		// One good frame, then a torn one: the good sample answers, the
		// tear is an in-band error outcome on the NDJSON response.
		body := append(append([]byte(nil), good...), good[:7]...)
		resp, data := post(t, "/v1/panels/stream", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stream status %d", resp.StatusCode)
		}
		lines := 0
		sawErr := false
		sawResult := false
		for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			if line == "" {
				continue
			}
			wo, err := wire.UnmarshalOutcome([]byte(line))
			if err != nil {
				t.Fatalf("line %q: %v", line, err)
			}
			lines++
			if wo.Error != "" && strings.Contains(wo.Error, "truncated") {
				sawErr = true
			}
			if wo.Result != nil {
				sawResult = true
			}
		}
		if lines != 2 || !sawErr || !sawResult {
			t.Fatalf("want one result + one truncation outcome, got %d lines (err=%v result=%v): %q",
				lines, sawErr, sawResult, data)
		}
	})
}
