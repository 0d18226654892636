package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"time"

	"github.com/genet-go/genet/internal/serve"
)

const (
	probeCalls = 20000 // calls per timed batch
	probeReps  = 5     // batches; the median batch is reported
	rttCalls   = 5000  // sequential loopback round trips for the alloc count
)

// probe times f over probeReps batches of probeCalls calls after one
// untimed warm-up batch and returns the median µs per call and the heap
// allocations per call.
func probe(f func(i int) error) (usPerCall, allocsPerCall float64, err error) {
	for i := 0; i < probeCalls; i++ {
		if err := f(i); err != nil {
			return 0, 0, err
		}
	}
	var times []float64
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for rep := 0; rep < probeReps; rep++ {
		t0 := time.Now()
		for i := 0; i < probeCalls; i++ {
			if err := f(i); err != nil {
				return 0, 0, err
			}
		}
		times = append(times, us(time.Since(t0))/probeCalls)
	}
	runtime.ReadMemStats(&b)
	return median(times), float64(b.Mallocs-a.Mallocs) / (probeReps * probeCalls), nil
}

// probeLayers measures the serve layers in memory, one call at a time:
// Model.Decide (the forward pass), Server.DecideCtx (plus admission) and
// NewHandler's ServeHTTP (plus JSON decode and encode), then counts the
// allocations of a whole loopback round trip.
func probeLayers(f *serveFixture, o *outcome) error {
	m := f.models[0]
	n := len(f.pool)
	fwdUS, fwdAllocs, err := probe(func(i int) error {
		_, err := m.Decide(f.pool[i%n])
		return err
	})
	if err != nil {
		return err
	}
	ctx := context.Background()
	decUS, _, err := probe(func(i int) error {
		_, err := f.srv.DecideCtx(ctx, f.pool[i%n])
		return err
	})
	if err != nil {
		return err
	}

	h := serve.NewHandler(f.srv)
	req, err := http.NewRequest(http.MethodPost, "/decide", nil)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	body := &memBody{}
	req.Body = body
	w := &memWriter{h: http.Header{}}
	hUS, hAllocs, err := probe(func(i int) error {
		body.Reset(f.bodies[i%n])
		req.ContentLength = int64(len(f.bodies[i%n]))
		clear(w.h)
		w.buf.Reset()
		w.code = 0
		h.ServeHTTP(w, req)
		if w.code != 0 && w.code != http.StatusOK {
			return fmt.Errorf("in-memory /decide: status %d: %s", w.code, w.buf.Bytes())
		}
		return nil
	})
	if err != nil {
		return err
	}
	var d serve.Decision
	if err := json.Unmarshal(w.buf.Bytes(), &d); err != nil || !f.check(d.ModelVersion, (probeCalls-1)%n, d.Action) {
		return fmt.Errorf("in-memory /decide answered %q (decode error %v)", w.buf.Bytes(), err)
	}

	var a, b runtime.MemStats
	c := f.clients[0]
	runtime.ReadMemStats(&a)
	for i := 0; i < rttCalls; i++ {
		if _, err := c.DecideCtx(ctx, f.pool[i%n]); err != nil {
			return fmt.Errorf("loopback decide: %w", err)
		}
	}
	runtime.ReadMemStats(&b)
	rttAllocs := float64(b.Mallocs-a.Mallocs) / rttCalls

	o.set("serve.forward_us", fwdUS)
	o.set("serve.forward_allocs", fwdAllocs)
	o.set("serve.admit_us", decUS-fwdUS)
	o.set("serve.codec_us", hUS-decUS)
	o.set("serve.handler_allocs", hAllocs)
	// Client and server share the process, so the client's share of a
	// round trip's allocations is the total minus the handler's; it
	// includes net/http's transport on both ends.
	o.set("serve.client_allocs", rttAllocs-hAllocs)
	return nil
}

// memBody is a reusable request body.
type memBody struct{ bytes.Reader }

func (*memBody) Close() error { return nil }

// memWriter is a reusable in-memory http.ResponseWriter.
type memWriter struct {
	h    http.Header
	buf  bytes.Buffer
	code int
}

func (w *memWriter) Header() http.Header         { return w.h }
func (w *memWriter) Write(b []byte) (int, error) { return w.buf.Write(b) }
func (w *memWriter) WriteHeader(code int)        { w.code = code }
