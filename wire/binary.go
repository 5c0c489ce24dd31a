package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
)

// Binary codec: a length-prefixed binary rendering of the same schema
// the JSON codec speaks, for the serving hot path (streaming and batch
// panel traffic), where JSON encode/decode dominates the per-panel
// service cost.
//
// A message is one frame:
//
//	frame   := u32le payloadLen | payload
//	payload := u16le schema | u8 kind | body
//
// All integers are little-endian; float64 fields travel as their IEEE
// 754 bit pattern (math.Float64bits), so the codec is lossless by
// construction — Decode(Encode(x)) reproduces every bit of every
// numeric field, which is what keeps PanelResult fingerprints intact
// across the wire. Strings are u32le byte length + UTF-8 bytes; maps
// encode in sorted key order so equal values encode to equal bytes.
//
// The compatibility policy matches the JSON codec exactly: the schema
// version is a closed contract, decoding is strict — an unknown
// version, an unknown message kind, a truncated body, or trailing
// bytes after a complete body are all errors, never a guess.
const (
	// BinaryMediaType is the HTTP content type of the binary codec;
	// clients send and request it by this name.
	BinaryMediaType = "application/x-advdiag-binary"

	binKindSample  = 1
	binKindOutcome = 2

	// binFrameOverhead is the fixed frame cost: the u32 length prefix
	// plus the u16 schema and u8 kind of the payload header.
	binFrameOverhead = 4 + 2 + 1
)

// MarshalSampleBinary encodes one sample as a binary frame, stamping
// the schema version when the zero value was left in place and
// validating first (the same contract as MarshalSample).
//
//advdiag:hotpath
func MarshalSampleBinary(s Sample) ([]byte, error) {
	if s.Schema == 0 {
		s.Schema = SchemaVersion
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	buf := beginFrame(binKindSample, binFrameOverhead+16+len(s.ID)+24*len(s.Concentrations))
	buf = appendBinString(buf, s.ID)
	buf = appendBinConcs(buf, s.Concentrations)
	return endFrame(buf), nil
}

// UnmarshalSampleBinary strictly decodes one complete sample frame:
// version skew, a foreign message kind, truncation and trailing bytes
// are all errors, and the decoded sample passes the same runtime
// validation as its JSON twin.
//
//advdiag:hotpath
func UnmarshalSampleBinary(data []byte) (Sample, error) {
	r, err := openFrame(data, binKindSample)
	if err != nil {
		//advdiag:allow hot-fmt corrupt-frame error path: a frame that decodes pays no fmt cost
		return Sample{}, fmt.Errorf("wire: sample: %w", err)
	}
	var s Sample
	s.Schema = SchemaVersion
	s.ID = r.str()
	s.Concentrations = r.concs()
	if err := r.close(); err != nil {
		//advdiag:allow hot-fmt corrupt-frame error path: a frame that decodes pays no fmt cost
		return Sample{}, fmt.Errorf("wire: sample: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Sample{}, err
	}
	return s, nil
}

// MarshalOutcomeBinary encodes one outcome as a binary frame, stamping
// schema versions left at zero and validating first (the same contract
// as MarshalOutcome).
//
//advdiag:hotpath
func MarshalOutcomeBinary(o Outcome) ([]byte, error) {
	if o.Schema == 0 {
		o.Schema = SchemaVersion
	}
	if o.Result != nil && o.Result.Schema == 0 {
		cp := *o.Result
		cp.Schema = SchemaVersion
		o.Result = &cp
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	n := binFrameOverhead + 3*8 + 8 + len(o.ID) + 8 + len(o.Error) + 1 + 16
	if o.Result != nil {
		n += 20 + 60*len(o.Result.Readings)
	}
	buf := beginFrame(binKindOutcome, n)
	buf = appendBinInt(buf, o.Seq)
	buf = appendBinInt(buf, o.Index)
	buf = appendBinString(buf, o.ID)
	buf = appendBinInt(buf, o.Shard)
	buf = appendBinString(buf, o.Error)
	if o.Result == nil {
		buf = append(buf, 0)
	} else {
		buf = append(buf, 1)
		buf = appendBinFloat(buf, o.Result.PanelSeconds)
		buf = appendBinInt(buf, o.Result.NoiseModel)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(o.Result.Readings)))
		for _, rd := range o.Result.Readings {
			buf = appendBinString(buf, rd.Target)
			buf = appendBinString(buf, rd.WE)
			buf = appendBinString(buf, rd.Probe)
			buf = appendBinFloat(buf, rd.MeasuredMicroAmps)
			buf = appendBinFloat(buf, rd.EstimatedMM)
			buf = appendBinFloat(buf, rd.TrueMM)
			buf = appendBinFloat(buf, rd.PeakMV)
		}
	}
	buf = appendBinFloat(buf, o.ScheduledStartSeconds)
	buf = appendBinFloat(buf, o.WallSeconds)
	return endFrame(buf), nil
}

// UnmarshalOutcomeBinary strictly decodes one complete outcome frame
// (the binary twin of UnmarshalOutcome).
//
//advdiag:hotpath
func UnmarshalOutcomeBinary(data []byte) (Outcome, error) {
	r, err := openFrame(data, binKindOutcome)
	if err != nil {
		//advdiag:allow hot-fmt corrupt-frame error path: a frame that decodes pays no fmt cost
		return Outcome{}, fmt.Errorf("wire: outcome: %w", err)
	}
	var o Outcome
	o.Schema = SchemaVersion
	o.Seq = r.int()
	o.Index = r.int()
	o.ID = r.str()
	o.Shard = r.int()
	o.Error = r.str()
	switch r.u8() {
	case 0:
	case 1:
		res := PanelResult{Schema: SchemaVersion, PanelSeconds: r.f64(), NoiseModel: r.int()}
		n := int(r.u32())
		if r.err == nil && n > r.remaining()/(3*4+4*8) {
			//advdiag:allow hot-fmt corrupt-frame error path: a frame that decodes pays no fmt cost
			r.fail(fmt.Errorf("reading count %d exceeds the remaining payload", n))
		}
		if r.err == nil && n > 0 {
			res.Readings = make([]Reading, n)
			for i := range res.Readings {
				res.Readings[i] = Reading{
					Target:            r.str(),
					WE:                r.str(),
					Probe:             r.str(),
					MeasuredMicroAmps: r.f64(),
					EstimatedMM:       r.f64(),
					TrueMM:            r.f64(),
					PeakMV:            r.f64(),
				}
			}
		}
		o.Result = &res
	default:
		//advdiag:allow hot-fmt corrupt-frame error path: a frame that decodes pays no fmt cost
		r.fail(fmt.Errorf("bad result-presence byte"))
	}
	o.ScheduledStartSeconds = r.f64()
	o.WallSeconds = r.f64()
	if err := r.close(); err != nil {
		//advdiag:allow hot-fmt corrupt-frame error path: a frame that decodes pays no fmt cost
		return Outcome{}, fmt.Errorf("wire: outcome: %w", err)
	}
	if err := o.Validate(); err != nil {
		return Outcome{}, err
	}
	return o, nil
}

// ReadBinaryFrame reads one complete frame (length prefix included)
// from r, refusing payloads above max bytes. At a clean frame boundary
// it returns io.EOF; a stream that ends mid-frame is an
// io.ErrUnexpectedEOF-wrapped truncation error. The returned slice is
// ready for UnmarshalSampleBinary / UnmarshalOutcomeBinary.
func ReadBinaryFrame(r io.Reader, max int) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("wire: truncated frame header: %w", err)
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if int64(n) > int64(max) {
		return nil, fmt.Errorf("wire: frame payload of %d bytes exceeds the %d-byte bound", n, max)
	}
	frame := make([]byte, 4+int(n))
	copy(frame, hdr[:])
	if _, err := io.ReadFull(r, frame[4:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("wire: truncated frame body: %w", err)
	}
	return frame, nil
}

// --- encoding helpers ------------------------------------------------

// beginFrame starts a frame buffer with the length prefix left blank
// and the payload header written; sizeHint pre-sizes the allocation.
func beginFrame(kind byte, sizeHint int) []byte {
	buf := make([]byte, 4, sizeHint)
	buf = binary.LittleEndian.AppendUint16(buf, SchemaVersion)
	return append(buf, kind)
}

// endFrame backfills the length prefix.
func endFrame(buf []byte) []byte {
	binary.LittleEndian.PutUint32(buf[:4], uint32(len(buf)-4))
	return buf
}

func appendBinString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

func appendBinFloat(buf []byte, v float64) []byte {
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

func appendBinInt(buf []byte, v int) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(int64(v)))
}

func appendBinConcs(buf []byte, concs map[string]float64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(concs)))
	names := make([]string, 0, len(concs))
	for name := range concs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		buf = appendBinString(buf, name)
		buf = appendBinFloat(buf, concs[name])
	}
	return buf
}

// --- decoding helpers ------------------------------------------------

// binReader walks one frame's payload with sticky error tracking:
// after the first failure every accessor returns a zero value, and
// close reports the failure (or trailing bytes).
type binReader struct {
	buf []byte
	err error
}

// openFrame checks the length prefix against the data, the schema
// version, and the message kind, and positions a reader at the body.
func openFrame(data []byte, kind byte) (*binReader, error) {
	if len(data) < binFrameOverhead {
		return nil, fmt.Errorf("binary frame of %d bytes is shorter than a frame header", len(data))
	}
	if n := binary.LittleEndian.Uint32(data); int64(n) != int64(len(data)-4) {
		return nil, fmt.Errorf("binary frame length %d does not match the %d payload bytes present", n, len(data)-4)
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != SchemaVersion {
		return nil, fmt.Errorf("binary schema %d, this decoder speaks %d", v, SchemaVersion)
	}
	if k := data[6]; k != kind {
		return nil, fmt.Errorf("binary message kind %d, want %d", k, kind)
	}
	return &binReader{buf: data[binFrameOverhead:]}, nil
}

func (r *binReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *binReader) remaining() int { return len(r.buf) }

func (r *binReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if len(r.buf) < n {
		r.fail(fmt.Errorf("truncated payload: need %d bytes, have %d", n, len(r.buf)))
		return nil
	}
	out := r.buf[:n]
	r.buf = r.buf[n:]
	return out
}

func (r *binReader) u8() byte {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *binReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *binReader) int() int {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return int(int64(binary.LittleEndian.Uint64(b)))
}

func (r *binReader) f64() float64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(b))
}

func (r *binReader) str() string {
	n := r.u32()
	if r.err == nil && int64(n) > int64(r.remaining()) {
		r.fail(fmt.Errorf("truncated string: %d bytes declared, %d present", n, r.remaining()))
		return ""
	}
	return string(r.take(int(n)))
}

func (r *binReader) concs() map[string]float64 {
	n := int(r.u32())
	if r.err == nil && n > r.remaining()/12 {
		r.fail(fmt.Errorf("concentration count %d exceeds the remaining payload", n))
		return nil
	}
	if r.err != nil {
		return nil
	}
	out := make(map[string]float64, n)
	prev := ""
	for i := 0; i < n; i++ {
		name := r.str()
		v := r.f64()
		if r.err != nil {
			return nil
		}
		// Keys must arrive in strictly increasing order — the only
		// order the encoder emits — so every value has exactly one
		// valid encoding (and duplicates are impossible).
		if i > 0 && name <= prev {
			r.fail(fmt.Errorf("concentration keys out of canonical order (%q after %q)", name, prev))
			return nil
		}
		prev = name
		out[name] = v
	}
	return out
}

// close reports the first decode failure, or trailing bytes after a
// complete body — the binary counterpart of the JSON codec's "trailing
// data after JSON value".
func (r *binReader) close() error {
	if r.err != nil {
		return r.err
	}
	if len(r.buf) != 0 {
		return fmt.Errorf("trailing %d bytes after binary value", len(r.buf))
	}
	return nil
}
