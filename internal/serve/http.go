package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"time"

	"github.com/genet-go/genet/internal/obs"
)

// DecideRequest is the /decide request body.
type DecideRequest struct {
	Obs []float64 `json:"obs"`
}

// maxDecideBody bounds a /decide request body: the largest observation the
// repo serves is tens of floats, so 1 MiB is generous headroom, not a limit
// anyone hits.
const maxDecideBody = 1 << 20

// Trace propagation headers. A client sends TraceHeader to attach its
// request to an existing trace (retries reuse it, with AttemptHeader
// counting the retry index); the server stamps TraceHeader on every /decide
// response — including error responses — so any answer can be joined to the
// access log and span trace.
const (
	TraceHeader   = "X-Genet-Trace"
	AttemptHeader = "X-Genet-Attempt"
)

// ErrorBody is the structured JSON body /decide returns on failure: the
// error, the outcome class the request was accounted under, and the trace
// ID (when observability is on) to chase it through the access log.
type ErrorBody struct {
	Error   string `json:"error"`
	Outcome string `json:"outcome"`
	Trace   string `json:"trace,omitempty"`
}

// shedRetryAfterSec is the Retry-After hint on a 503 shed response: long
// enough that a well-behaved client backs off past the transient, short
// enough that capacity freed by a drained burst is reused promptly.
const shedRetryAfterSec = 1

// NewHandler mounts the serving endpoints:
//
//	GET  /healthz  liveness ("ok" while the process can answer at all)
//	GET  /readyz   readiness: 200 "ready" at full fidelity, 503 "degraded"
//	               while the model is quarantined and fallback is serving
//	GET  /metrics  Prometheus text exposition, including the decision
//	               latency histogram, its derived p50/p99 gauges, and the
//	               shed/deadline/degraded counters
//	POST /decide   {"obs": [...]} -> Decision JSON. Shed requests get 503 +
//	               Retry-After; requests that exhaust the per-request
//	               deadline get 504. Failures carry a structured ErrorBody
//	               and every response is stamped with X-Genet-Trace when
//	               observability is on.
//	GET  /model    Info JSON: use case, version, shapes, swap counters
//	GET  /swaps    SwapEvent JSON array: the recent hot-swap accept/reject
//	               history with rejection reasons
//	GET  /slo      SLOReport JSON: multi-window availability and latency
//	               burn rates (404 while SLO tracking is off)
//
// JSON responses are encoded into a buffer first so an encoding failure
// becomes a 500, never a torn 200 body.
func NewHandler(s *Server) http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})

	// Readiness is distinct from liveness: a degraded server is alive (it
	// answers with fallback decisions) but tells balancers to prefer
	// healthy replicas. 503 — not a crash — is the whole point.
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "degraded\n")
			return
		}
		io.WriteString(w, "ready\n")
	})

	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		var buf bytes.Buffer
		if err := obs.WritePrometheus(&buf, s.Snapshot()); err != nil {
			http.Error(w, "encode metrics: "+err.Error(), http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.Write(buf.Bytes())
	})

	mux.HandleFunc("/decide", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST required", http.StatusMethodNotAllowed)
			return
		}
		// Resolve the request's trace identity before touching the body, so
		// even a malformed request gets a traceable error response. A
		// malformed trace header is treated as absent (mint fresh) — a
		// client bug in propagation should not turn into rejected traffic.
		tid, terr := obs.ParseTraceID(r.Header.Get(TraceHeader))
		if terr != nil {
			tid = 0
		}
		if tid == 0 {
			tid = s.obsrv.Mint()
		}
		if tid != 0 {
			w.Header().Set(TraceHeader, tid.String())
		}
		ctx := obs.WithTrace(r.Context(), tid)
		if a, err := strconv.Atoi(r.Header.Get(AttemptHeader)); err == nil && a > 0 {
			ctx = obs.WithAttempt(ctx, a)
		}

		// The observation may live in wb until the handler returns: DecideCtx
		// (and the degraded-mode probe inside it) finish with it before
		// returning, and nothing they hand on keeps it.
		wb := getWireBuf()
		defer wb.put()
		obsVec, err := wb.decodeRequest(r.Body)
		if err != nil {
			s.countBadRequest(ctx, tid, err)
			writeError(w, http.StatusBadRequest, "bad request body: "+err.Error(), OutcomeError, tid)
			return
		}
		if d := s.Deadline(); d > 0 {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, d)
			defer cancel()
		}
		d, err := s.DecideCtx(ctx, obsVec)
		if err != nil {
			switch {
			case errors.Is(err, ErrShed):
				w.Header().Set("Retry-After", strconv.Itoa(shedRetryAfterSec))
				writeError(w, http.StatusServiceUnavailable, err.Error(), OutcomeShed, tid)
			case errors.Is(err, context.DeadlineExceeded):
				writeError(w, http.StatusGatewayTimeout, "deadline exceeded", OutcomeDeadline, tid)
			case errors.Is(err, context.Canceled):
				// The client went away; the status is moot but pick one
				// that is not a 200.
				writeError(w, http.StatusServiceUnavailable, "request canceled", OutcomeDeadline, tid)
			default:
				writeError(w, http.StatusBadRequest, err.Error(), OutcomeError, tid)
			}
			return
		}
		out, ok := appendDecision(wb.out[:0], d)
		if !ok {
			writeJSON(w, d) // encoding/json's error, as a 500
			return
		}
		wb.out = out
		w.Header().Set("Content-Type", "application/json")
		w.Write(out)
	})

	mux.HandleFunc("/model", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, s.Info())
	})

	mux.HandleFunc("/swaps", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, s.SwapHistory())
	})

	mux.HandleFunc("/slo", func(w http.ResponseWriter, _ *http.Request) {
		slo := s.obsrv.SLO()
		if slo == nil {
			http.Error(w, "slo tracking disabled", http.StatusNotFound)
			return
		}
		writeJSON(w, slo.Report())
	})

	return mux
}

// countBadRequest accounts an HTTP-layer rejection (body never parsed):
// the bad-request counter plus an access-log line and SLO record, so
// error-class log lines reconcile as decide_errors_total +
// bad_requests_total.
func (s *Server) countBadRequest(ctx context.Context, tid obs.TraceID, err error) {
	if s.reg.Enabled() {
		s.reg.Counter(MetricBadRequests).Inc()
	}
	s.obsrv.endRequest(ctx, time.Now(), tid, 0, Decision{}, err)
}

// writeError sends the structured /decide error body.
func writeError(w http.ResponseWriter, code int, msg, outcome string, tid obs.TraceID) {
	body := ErrorBody{Error: msg, Outcome: outcome}
	if tid != 0 {
		body.Trace = tid.String()
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(body); err != nil {
		http.Error(w, msg, code)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(buf.Bytes())
}

func writeJSON(w http.ResponseWriter, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		http.Error(w, "encode response: "+err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(buf.Bytes())
}
