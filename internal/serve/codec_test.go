package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"github.com/genet-go/genet/internal/abr"
	"github.com/genet-go/genet/internal/cc"
)

// wireFloats are the float64 values whose encoding has an edge: both
// zeros, the 'f'/'e' switch at 1e-6 and 1e21 from both sides, the e-07 →
// e-7 cleanup, subnormals, the extremes, and shortest-round-trip cases.
var wireFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, -0.1, 0.3, 1.0 / 3, 2.0 / 3,
	1e-6, -1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
	9.999999e-7, 1e-7, 1.5e-7, 1e-10, 1e-100,
	1e21, -1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)),
	1e20, 1e22, 123456789, 123456789012345680000, 1.5e300,
	5e-324, -5e-324, 1e-320, 2.225073858507201e-308, 2.2250738585072014e-308,
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	float64(math.MaxInt64), float64(1 << 53), float64(1<<53 + 2),
	-1.2345678901234567e-100, 0.0000012345678901234567,
}

// wireDecisions covers every shape a /decide response takes: discrete
// model decisions, fallback decisions, continuous action vectors over
// wireFloats, and the integer extremes.
func wireDecisions() []Decision {
	ds := []Decision{
		{},
		{Action: 3, ModelVersion: 1},
		{Action: 5, ModelVersion: 12},
		{Action: 2, Fallback: true},
		{Action: -1, ActionVec: []float64{-1}, Fallback: true},
		{Action: -1, ActionVec: []float64{0.1}, Fallback: true},
		{Action: 1, ActionVec: []float64{}, ModelVersion: 4}, // omitempty drops []
		{Action: 0, ModelVersion: math.MaxUint64},
		{Action: math.MaxInt64, ModelVersion: math.MaxUint64, Fallback: true},
		{Action: math.MinInt64, ModelVersion: 1},
		{Action: -1, ActionVec: wireFloats, ModelVersion: 3},
	}
	for i, v := range wireFloats {
		ds = append(ds, Decision{Action: -1, ActionVec: []float64{v}, ModelVersion: uint64(i)})
	}
	return ds
}

// wireObs covers the request side: nil, empty, single edge values, and
// full-width observations at several scales.
func wireObs() [][]float64 {
	obs := [][]float64{nil, {}, wireFloats}
	for _, v := range wireFloats {
		obs = append(obs, []float64{v})
	}
	rng := rand.New(rand.NewSource(1))
	for _, scale := range []float64{1, 1e-7, 1e-3, 1e6, 1e25} {
		o := make([]float64, abr.ObsSize)
		for i := range o {
			o[i] = rng.NormFloat64() * scale
		}
		obs = append(obs, o)
	}
	return obs
}

func encodeJSON(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameFloats reports whether a and b are bit-identical, nil-ness included.
func sameFloats(a, b []float64) bool {
	if (a == nil) != (b == nil) || len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameDecision(a, b Decision) bool {
	return a.Action == b.Action && a.ModelVersion == b.ModelVersion &&
		a.Fallback == b.Fallback && sameFloats(a.ActionVec, b.ActionVec)
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

func TestAppendDecisionMatchesEncoder(t *testing.T) {
	for _, d := range wireDecisions() {
		got, ok := appendDecision(nil, d)
		if want := encodeJSON(t, d); !ok || !bytes.Equal(got, want) {
			t.Errorf("appendDecision(%+v) = %q, %v; json.Encoder writes %q", d, got, ok, want)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		d := Decision{Action: -1, ActionVec: []float64{0.5, bad}, ModelVersion: 1}
		if _, ok := appendDecision(nil, d); ok {
			t.Errorf("appendDecision accepted action %v", bad)
		}
		if err := json.NewEncoder(io.Discard).Encode(d); err == nil {
			t.Errorf("json.Encoder accepted action %v", bad)
		}
	}
}

func TestAppendDecideRequestMatchesMarshal(t *testing.T) {
	for _, o := range wireObs() {
		want, err := json.Marshal(DecideRequest{Obs: o})
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendDecideRequest([]byte("keep"), o)
		if err != nil || !bytes.Equal(got, append([]byte("keep"), want...)) {
			t.Errorf("appendDecideRequest(%v) = %q, %v; json.Marshal returns %q", o, got, err, want)
		}
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		o := []float64{1, bad, 2}
		_, want := json.Marshal(DecideRequest{Obs: o})
		_, got := appendDecideRequest(nil, o)
		if want == nil || got == nil || got.Error() != want.Error() || reflect.TypeOf(got) != reflect.TypeOf(want) {
			t.Errorf("appendDecideRequest(%v) error %v (%T), json.Marshal %v (%T)", o, got, got, want, want)
		}
	}
}

// TestCodecRoundTripsTakeFastPath: everything the writers produce is
// canonical, so the readers parse it without falling back, to the values
// that were written.
func TestCodecRoundTripsTakeFastPath(t *testing.T) {
	for _, o := range wireObs() {
		if o == nil {
			continue // {"obs":null} is encoding/json's to decode
		}
		body, _ := appendDecideRequest(nil, o)
		got, ok := parseDecideRequest(body, nil)
		if !ok || !sameFloats(got, o) {
			t.Errorf("parseDecideRequest(%q) = %v, %v; want %v", body, got, ok, o)
		}
	}
	for _, d := range wireDecisions() {
		body, _ := appendDecision(nil, d)
		got, ok := parseDecision(body, nil)
		if len(d.ActionVec) == 0 {
			d.ActionVec = nil // omitted on the wire
		}
		if !ok || !sameDecision(got, d) {
			t.Errorf("parseDecision(%q) = %+v, %v; want %+v", body, got, ok, d)
		}
	}
}

// responseBodies are /decide responses in and out of the canonical shape.
func responseBodies(t *testing.T) [][]byte {
	bodies := [][]byte{}
	for _, d := range wireDecisions() {
		bodies = append(bodies, encodeJSON(t, d))
	}
	for _, s := range []string{
		` { "action" : 3 , "model_version" : 1 } `,
		"{\"action\":-1,\r\n\"action_vec\":[ 1e-7 , -0 ],\t\"model_version\":2,\"fallback\":true}\n\n",
		`{"action":1,"model_version":1,"fallback":false}`,
		`{"action":1,"action_vec":[],"model_version":1}`,
		`{"action":1,"action_vec":null,"model_version":1}`,
		`{"action":1,"model_version":1,"fallback":null}`,
		`{"model_version":1,"action":2}`,
		`{"Action":2,"model_version":1}`,
		`{"action":2,"model_version":1,"extra":[1]}`,
		`{"action":2,"action":3,"model_version":1}`,
		`{"action":1.5,"model_version":1}`,
		`{"action":1e2,"model_version":1}`,
		`{"action":-0,"model_version":0}`,
		`{"action":01,"model_version":1}`,
		`{"action":9223372036854775808,"model_version":1}`,
		`{"action":1,"model_version":-1}`,
		`{"action":1,"model_version":-0}`,
		`{"action":1,"model_version":18446744073709551616}`,
		`{"action":1,"action_vec":[1e309],"model_version":1}`,
		`{"action":1,"action_vec":["1"],"model_version":1}`,
		`{"action":1,"model_version":1} trailing`,
		`{"action":1,"model_version":1}{"action":2}`,
		`{"action":1,"model_version":1`,
		`{"action":true,"model_version":1}`,
		`null`,
		``,
		`<html>502 Bad Gateway</html>`,
	} {
		bodies = append(bodies, []byte(s))
	}
	return bodies
}

func TestDecodeResponseMatchesDecoder(t *testing.T) {
	for _, body := range responseBodies(t) {
		var want Decision
		werr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		wb := getWireBuf()
		got, gerr := wb.decodeResponse(bytes.NewReader(body))
		if errText(gerr) != errText(werr) || !sameDecision(got, want) {
			t.Errorf("decodeResponse(%q) = %+v, %v; json.Decoder gives %+v, %v", body, got, gerr, want, werr)
		}
		wb.put()
	}
}

// TestDecodeReadErrorMatchesDecoder: a body whose read fails part way
// decodes as it does when json.Decoder reads the same stream — the read
// error when the value is incomplete, the value when it completed first.
func TestDecodeReadErrorMatchesDecoder(t *testing.T) {
	reset := errors.New("connection reset")
	for _, head := range []string{
		`{"obs":[1,`, `{"obs":[1]}`, `{"obs":[1]} `, `{"OBS":[2]}`, ``,
		`{"action":1,`, `{"action":1,"model_version":2}`,
	} {
		stream := func() io.Reader { return io.MultiReader(strings.NewReader(head), iotest.ErrReader(reset)) }
		wb := getWireBuf()

		var req DecideRequest
		werr := json.NewDecoder(stream()).Decode(&req)
		got, gerr := wb.decodeRequest(stream())
		if errText(gerr) != errText(werr) || !sameFloats(got, req.Obs) {
			t.Errorf("request %q then %v: %v, %v; json.Decoder %v, %v", head, reset, got, gerr, req.Obs, werr)
		}

		var want Decision
		werr = json.NewDecoder(stream()).Decode(&want)
		d, gerr := wb.decodeResponse(stream())
		if errText(gerr) != errText(werr) || !sameDecision(d, want) {
			t.Errorf("response %q then %v: %+v, %v; json.Decoder %+v, %v", head, reset, d, gerr, want, werr)
		}
		wb.put()
	}
}

// TestCodecAllocs pins the per-request codec work at zero allocations into
// caller-supplied buffers: the request parse (bare and through the
// handler's pooled read), both encoders, and the discrete response parse.
func TestCodecAllocs(t *testing.T) {
	obs := make([]float64, abr.ObsSize)
	rng := rand.New(rand.NewSource(3))
	for i := range obs {
		obs[i] = rng.NormFloat64()
	}
	body, err := appendDecideRequest(nil, obs)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 0, len(obs))
	buf := make([]byte, 0, 4096)
	discrete := Decision{Action: 3, ModelVersion: 7}
	continuous := Decision{Action: -1, ActionVec: []float64{-0.25}, ModelVersion: 7, Fallback: true}
	discreteBody, _ := appendDecision(nil, discrete)
	vec := make([]float64, 0, 4)
	wb := getWireBuf()
	defer wb.put()
	r := bytes.NewReader(body)

	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"parseDecideRequest", func() {
			if _, ok := parseDecideRequest(body, dst); !ok {
				t.Fatal("canonical body fell back")
			}
		}},
		{"decodeRequest", func() {
			r.Reset(body)
			if _, err := wb.decodeRequest(r); err != nil {
				t.Fatal(err)
			}
		}},
		{"appendDecision", func() { appendDecision(buf[:0], discrete) }},
		{"appendDecision/vec", func() { appendDecision(buf[:0], continuous) }},
		{"appendDecideRequest", func() { appendDecideRequest(buf[:0], obs) }},
		{"parseDecision", func() {
			if _, ok := parseDecision(discreteBody, vec); !ok {
				t.Fatal("canonical response fell back")
			}
		}},
	} {
		tc.fn() // size the pooled buffers
		if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
			t.Errorf("%s allocates %.0f/op, want 0", tc.name, n)
		}
	}
}

// fuzzBody assembles one FuzzDecideBody input. With an empty fill it is
// prefix+suffix. Otherwise fill is repeated after prefix up to half of
// suffix short of maxDecideBody, so the body runs past the limit and the
// cut lands inside suffix.
func fuzzBody(prefix, fill, suffix []byte) []byte {
	body := append([]byte(nil), prefix...)
	if len(fill) > 0 {
		n := maxDecideBody - len(suffix)/2
		for len(body) < n {
			body = append(body, fill...)
		}
		body = body[:max(n, len(prefix))]
	}
	return append(body, suffix...)
}

// FuzzDecideBody differentially fuzzes the /decide codec readers against
// encoding/json. For every body the request decoder must agree with
// json.NewDecoder over the first maxDecideBody bytes (what the handler
// decoded before the codec existed) on accept or reject, error text, and
// the observation's bits, length and nil-ness; the response decoder must
// agree the same way with json.NewDecoder over the whole body.
func FuzzDecideBody(f *testing.F) {
	f.Fuzz(func(t *testing.T, prefix, fill, suffix []byte) {
		body := fuzzBody(prefix, fill, suffix)
		wb := getWireBuf()
		defer wb.put()

		var req DecideRequest
		werr := json.NewDecoder(io.LimitReader(bytes.NewReader(body), maxDecideBody)).Decode(&req)
		got, gerr := wb.decodeRequest(bytes.NewReader(body))
		if errText(gerr) != errText(werr) {
			t.Fatalf("request %q: error %q, json.Decoder %q", trimmed(body), errText(gerr), errText(werr))
		}
		if !sameFloats(got, req.Obs) {
			t.Fatalf("request %q: obs %v (nil %v), json.Decoder %v (nil %v)", trimmed(body), got, got == nil, req.Obs, req.Obs == nil)
		}

		var want Decision
		werr = json.NewDecoder(bytes.NewReader(body)).Decode(&want)
		d, gerr := wb.decodeResponse(bytes.NewReader(body))
		if errText(gerr) != errText(werr) || !sameDecision(d, want) {
			t.Fatalf("response %q: %+v, %v; json.Decoder %+v, %v", trimmed(body), d, gerr, want, werr)
		}
	})
}

// trimmed shortens an oversized fuzz body for a failure message.
func trimmed(b []byte) string {
	if len(b) <= 200 {
		return string(b)
	}
	return fmt.Sprintf("%s...(%d bytes)...%s", b[:100], len(b)-200, b[len(b)-100:])
}

// TestHTTPDecideWire: through the real handler, a canonical and a
// non-canonical body both get exactly the bytes json.Encoder writes for the
// in-process decision, on a continuous-action (cc) server.
func TestHTTPDecideWire(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cc.bin")
	writeCCModel(t, path, 5)
	m, err := LoadModel("cc", path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New("cc", m, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	obs := make([]float64, cc.ObsSize)
	rng := rand.New(rand.NewSource(9))
	for i := range obs {
		obs[i] = rng.Float64()
	}
	d, err := s.Decide(obs)
	if err != nil {
		t.Fatal(err)
	}
	want := encodeJSON(t, d)
	canonical, _ := json.Marshal(DecideRequest{Obs: obs})
	other := bytes.Replace(canonical, []byte(`"obs"`), []byte(` "OBS" `), 1)
	for _, body := range [][]byte{canonical, other} {
		resp, err := http.Post(ts.URL+"/decide", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
			t.Errorf("POST %q = %d %q, want 200 %q", body, resp.StatusCode, got, want)
		}
	}

	// The client's decision is the in-process one, bit for bit.
	got, err := NewClient(ts.URL).Decide(obs)
	if err != nil || !sameDecision(got, d) {
		t.Fatalf("client decision %+v, %v; in-process %+v", got, err, d)
	}
}

// TestRemoteErrorMatchesInProcess: a server-side rejection reads the same
// through the client as in process — the StatusError carries the server's
// message, not its JSON error body — while a non-JSON error body is kept
// as trimmed text.
func TestRemoteErrorMatchesInProcess(t *testing.T) {
	s, _ := abrServer(t, nil)
	ts := httptest.NewServer(NewHandler(s))
	defer ts.Close()

	short := []float64{1, 2, 3}
	_, local := s.Decide(short)
	_, remote := NewClient(ts.URL).Decide(short)
	if local == nil || remote == nil {
		t.Fatalf("in-process %v, remote %v: want both to fail", local, remote)
	}
	var se *StatusError
	if !errors.As(remote, &se) || se.Code != http.StatusBadRequest || se.Msg != local.Error() {
		t.Fatalf("remote error %#v, want a 400 StatusError with Msg %q", remote, local.Error())
	}
	if !strings.HasSuffix(remote.Error(), local.Error()) {
		t.Fatalf("remote error %q does not end with the in-process %q", remote, local)
	}

	plain := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "observation has 3 dims", http.StatusBadRequest)
	}))
	defer plain.Close()
	_, err := NewClient(plain.URL).Decide(short)
	if !errors.As(err, &se) || se.Msg != "observation has 3 dims" {
		t.Fatalf("plain-text error %v, want Msg %q", err, "observation has 3 dims")
	}
}
