package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"
)

// The /decide wire codec. encoding/json costs a reflective walk, a Decoder
// and a growing slice per request on both ends of the data plane; the
// bodies are two fixed shapes, so this file reads and writes them by hand
// and leaves every other input to encoding/json:
//
//   - Writers (appendDecision, appendDecideRequest) produce the bytes
//     json.Encoder/json.Marshal produce, float formatting included, and
//     hand non-finite values to encoding/json for its error.
//   - Readers (parseDecideRequest, parseDecision) accept only the canonical
//     shape, with JSON whitespace anywhere json allows it, and report
//     ok=false on anything else; the callers then run json.NewDecoder over
//     the same bytes, so every non-canonical body gets encoding/json's
//     verdict, values and error text. Numbers must have RFC 8259 syntax
//     and are converted with the strconv calls encoding/json makes, so the
//     values are bit-identical.
//
// Everything appends into or parses into caller-owned buffers; on the
// canonical shapes no path allocates (TestCodecAllocs).

// maxFloatLen bounds one encoded float64: "-0.0000012345678901234567" is the
// longest 'f' form the 1e-6 cutoff lets through, and every 'e' form is
// shorter. Used only to size buffers up front.
const maxFloatLen = 25

// appendFloat appends f the way encoding/json writes a finite float64: like
// ES6 number-to-string, 'f' between 1e-6 and 1e21 and 'e' outside, with
// the exponent unpadded (e-07 becomes e-7).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendFloats appends xs as a JSON array. ok is false if any value is NaN
// or ±Inf, which JSON cannot spell; b is then incomplete.
func appendFloats(b []byte, xs []float64) ([]byte, bool) {
	b = append(b, '[')
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return b, false
		}
		if i > 0 {
			b = append(b, ',')
		}
		b = appendFloat(b, x)
	}
	return append(b, ']'), true
}

// appendDecision appends d and a newline: the bytes json.NewEncoder(w).
// Encode(d) writes. ok is false for a non-finite ActionVec value; the
// caller then encodes through encoding/json to get its error.
func appendDecision(b []byte, d Decision) ([]byte, bool) {
	b = append(b, `{"action":`...)
	b = strconv.AppendInt(b, int64(d.Action), 10)
	if len(d.ActionVec) > 0 {
		b = append(b, `,"action_vec":`...)
		var ok bool
		if b, ok = appendFloats(b, d.ActionVec); !ok {
			return b, false
		}
	}
	b = append(b, `,"model_version":`...)
	b = strconv.AppendUint(b, d.ModelVersion, 10)
	if d.Fallback {
		b = append(b, `,"fallback":true`...)
	}
	return append(b, "}\n"...), true
}

// appendDecideRequest appends the bytes json.Marshal(DecideRequest{Obs:
// obs}) returns, and the same error for a NaN or ±Inf observation.
func appendDecideRequest(b []byte, obs []float64) ([]byte, error) {
	b = append(b, `{"obs":`...)
	if obs == nil {
		return append(b, "null}"...), nil
	}
	b, ok := appendFloats(b, obs)
	if !ok {
		_, err := json.Marshal(DecideRequest{Obs: obs})
		return b, err
	}
	return append(b, '}'), nil
}

// wireScanner walks one body for the canonical-shape parsers. Each method
// skips leading JSON whitespace and reports whether the expected token was
// there; on false the caller gives the body to encoding/json.
type wireScanner struct {
	b []byte
	i int
}

func (s *wireScanner) skipSpace() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// lit consumes the literal text t.
func (s *wireScanner) lit(t string) bool {
	s.skipSpace()
	if len(s.b)-s.i < len(t) || string(s.b[s.i:s.i+len(t)]) != t {
		return false
	}
	s.i += len(t)
	return true
}

// key consumes a quoted member name and its colon. The name must be spelt
// exactly: escapes and other letter cases are left to encoding/json.
func (s *wireScanner) key(quoted string) bool {
	return s.lit(quoted) && s.lit(":")
}

// end reports whether only whitespace is left.
func (s *wireScanner) end() bool {
	s.skipSpace()
	return s.i == len(s.b)
}

// number consumes one RFC 8259 number,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns its text.
// integer additionally rejects a fraction or exponent.
func (s *wireScanner) number(integer bool) ([]byte, bool) {
	s.skipSpace()
	b, i := s.b, s.i
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		return nil, false
	}
	if !integer {
		if i < len(b) && b[i] == '.' {
			j := skipDigits(b, i+1)
			if j == i+1 {
				return nil, false
			}
			i = j
		}
		if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
			i++
			if i < len(b) && (b[i] == '+' || b[i] == '-') {
				i++
			}
			j := skipDigits(b, i)
			if j == i {
				return nil, false
			}
			i = j
		}
	}
	s.i = i
	return b[start:i], true
}

func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// floats consumes a JSON array of numbers and appends their values to dst,
// converted with strconv.ParseFloat(s, 64) as encoding/json converts into
// a float64. A range error (1e309) is not canonical: encoding/json reports
// it. The result is non-nil even for [], as encoding/json's is.
func (s *wireScanner) floats(dst []float64) ([]float64, bool) {
	if dst == nil {
		dst = []float64{}
	}
	if !s.lit("[") {
		return dst, false
	}
	if s.lit("]") {
		return dst, true
	}
	for {
		tok, ok := s.number(false)
		if !ok {
			return dst, false
		}
		v, err := strconv.ParseFloat(string(tok), 64)
		if err != nil {
			return dst, false
		}
		dst = append(dst, v)
		if s.lit("]") {
			return dst, true
		}
		if !s.lit(",") {
			return dst, false
		}
	}
}

// parseDecideRequest parses the canonical /decide body {"obs":[n,...]} and
// appends the observation to obs[:0]. ok is false for every other body —
// other or repeated keys, "OBS", null, a number encoding/json would reject,
// trailing bytes — which the caller decodes with encoding/json instead.
func parseDecideRequest(body []byte, obs []float64) (_ []float64, ok bool) {
	s := wireScanner{b: body}
	if !s.lit("{") || !s.key(`"obs"`) {
		return obs, false
	}
	if obs, ok = s.floats(obs[:0]); !ok {
		return obs, false
	}
	return obs, s.lit("}") && s.end()
}

// parseDecision parses the canonical /decide response — the keys in the
// order appendDecision writes them, action_vec and fallback optional — and
// appends any action vector to vec[:0]. ok is false for every other body,
// which the caller decodes with encoding/json instead.
func parseDecision(body []byte, vec []float64) (d Decision, ok bool) {
	s := wireScanner{b: body}
	if !s.lit("{") || !s.key(`"action"`) {
		return Decision{}, false
	}
	tok, ok := s.number(true)
	if !ok {
		return Decision{}, false
	}
	action, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		return Decision{}, false
	}
	d.Action = int(action)
	if !s.lit(",") {
		return Decision{}, false
	}
	if s.key(`"action_vec"`) {
		if d.ActionVec, ok = s.floats(vec[:0]); !ok || !s.lit(",") {
			return Decision{}, false
		}
	}
	if !s.key(`"model_version"`) {
		return Decision{}, false
	}
	if tok, ok = s.number(true); !ok {
		return Decision{}, false
	}
	if d.ModelVersion, err = strconv.ParseUint(string(tok), 10, 64); err != nil {
		return Decision{}, false
	}
	if s.lit(",") {
		if !s.key(`"fallback"`) {
			return Decision{}, false
		}
		switch {
		case s.lit("true"):
			d.Fallback = true
		case s.lit("false"):
		default:
			return Decision{}, false
		}
	}
	if !s.lit("}") || !s.end() {
		return Decision{}, false
	}
	return d, true
}

// readWire reads r into b[:0] until EOF or a read error. rest is what a
// fallback decoder must read after the returned bytes to see the stream r
// showed: nothing (nil) after EOF, else the read error again.
func readWire(b []byte, r io.Reader) (_ []byte, rest io.Reader) {
	b = b[:0]
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, errReader{err}
		}
	}
}

// replay is the stream a fallback decoder reads: b, then rest if non-nil.
func replay(b []byte, rest io.Reader) io.Reader {
	if rest == nil {
		return bytes.NewReader(b)
	}
	return io.MultiReader(bytes.NewReader(b), rest)
}

// errReader replays a read error to a fallback decoder.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// wireBuf is one /decide exchange's codec memory, pooled across requests
// on both ends: the body as read (and the limit reader bounding that read),
// the observation parsed out of it, and the encoded response.
type wireBuf struct {
	lim  io.LimitedReader
	body []byte
	obs  []float64
	out  []byte
}

// maxPooledWire bounds the bytes a pooled wireBuf keeps per buffer, so one
// oversized body does not pin up to maxDecideBody per P.
const maxPooledWire = 64 << 10

var wireBufs = sync.Pool{New: func() any {
	return &wireBuf{body: make([]byte, 0, 1024), obs: make([]float64, 0, 64), out: make([]byte, 0, 256)}
}}

func getWireBuf() *wireBuf { return wireBufs.Get().(*wireBuf) }

// put returns w to the pool. Nothing read from or parsed into w may be used
// afterwards.
func (w *wireBuf) put() {
	w.lim.R = nil
	if cap(w.body) > maxPooledWire {
		w.body = nil
	}
	if cap(w.obs)*8 > maxPooledWire {
		w.obs = nil
	}
	if cap(w.out) > maxPooledWire {
		w.out = nil
	}
	wireBufs.Put(w)
}

// decodeRequest reads a /decide request body — at most maxDecideBody bytes
// of it — and returns its observation: parsed into w.obs when the body has
// the canonical shape, otherwise decoded by encoding/json from the same
// bytes.
func (w *wireBuf) decodeRequest(r io.Reader) ([]float64, error) {
	w.lim = io.LimitedReader{R: r, N: maxDecideBody}
	var rest io.Reader
	w.body, rest = readWire(w.body, &w.lim)
	var ok bool
	if w.obs, ok = parseDecideRequest(w.body, w.obs); ok {
		return w.obs, nil
	}
	var req DecideRequest
	err := json.NewDecoder(replay(w.body, rest)).Decode(&req)
	return req.Obs, err
}

// decodeResponse reads a /decide response body and returns its decision,
// parsed by hand when the body has the canonical shape, otherwise decoded
// by encoding/json from the same stream. The read stops at maxDecideBody;
// the fallback decoder then reads on from r itself.
func (w *wireBuf) decodeResponse(r io.Reader) (Decision, error) {
	w.lim = io.LimitedReader{R: r, N: maxDecideBody}
	var rest io.Reader
	w.body, rest = readWire(w.body, &w.lim)
	if d, ok := parseDecision(w.body, nil); ok {
		return d, nil
	}
	if rest == nil && w.lim.N <= 0 {
		rest = r // the limit, not the end of the body, stopped the read
	}
	var d Decision
	err := json.NewDecoder(replay(w.body, rest)).Decode(&d)
	return d, err
}
