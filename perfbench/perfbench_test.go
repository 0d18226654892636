package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/genet-go/genet/internal/abr"
	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/obs"
)

// tinyOptions is a curriculum small enough for a unit test that still runs
// warm-up, search, promotion and training.
func tinyOptions(c trainCase) core.Options {
	o := c.options()
	o.WarmupIters, o.Rounds, o.ItersPerRound, o.BOSteps, o.EnvsPerEval = 2, 2, 1, 3, 2
	return o
}

// TestTimingWrapperObservationOnly: the wrapper changes no bit of a run,
// with or without a recorder and guard attached, and it forwards the
// optional setters (the recorder sees rl/* spans, the guard sees updates).
func TestTimingWrapperObservationOnly(t *testing.T) {
	for _, uc := range []string{"abr", "cc"} {
		c := trainCase{useCase: uc}
		opts := tinyOptions(c)
		plain, err := c.runCurriculum(7, opts, false, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		wrapped, err := c.runCurriculum(7, opts, true, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if wrapped.hash != plain.hash {
			t.Fatalf("%s: wrapping the harness changed the report", uc)
		}
		if wrapped.timed.evalEnvs != opts.Rounds*opts.BOSteps*opts.EnvsPerEval {
			t.Fatalf("%s: wrapper saw %d eval envs, want %d", uc, wrapped.timed.evalEnvs, opts.Rounds*opts.BOSteps*opts.EnvsPerEval)
		}

		rec := obs.NewRecorder(0)
		traced, err := c.runCurriculum(7, opts, true, rec, nil)
		if err != nil {
			t.Fatal(err)
		}
		if traced.hash != plain.hash {
			t.Fatalf("%s: tracing through the wrapper changed the report", uc)
		}
		spans := map[string]int{}
		for _, ev := range rec.Events() {
			spans[ev.Name]++
		}
		iters := opts.WarmupIters + opts.Rounds*opts.ItersPerRound
		if spans["rl/rollout"] != iters || spans["rl/update"] != iters {
			t.Fatalf("%s: recorder not forwarded through the wrapper: %v", uc, spans)
		}

		gopts, g := armGuard(opts)
		if _, err := c.runCurriculum(7, gopts, true, nil, nil); err != nil {
			t.Fatal(err)
		}
		if st := g.Snapshot(); st.Updates < iters {
			t.Fatalf("%s: guard not forwarded through the wrapper: %s", uc, st)
		}
	}
}

// TestInstrCounterCountsEveryThread: work done on threads the runtime
// starts after the counter opened is counted in full.
func TestInstrCounterCountsEveryThread(t *testing.T) {
	c, err := newInstrCounter()
	if err != nil {
		t.Skip("no hardware instruction counter:", err)
	}
	defer c.close()
	var sink atomic.Int64
	// spin runs the same loop on n goroutines, each locked to its own
	// thread while all n are alive, and returns the instructions counted.
	spin := func(n int) uint64 {
		before, err := c.read()
		if err != nil {
			t.Fatal(err)
		}
		var started, done sync.WaitGroup
		started.Add(n)
		done.Add(n)
		for g := 0; g < n; g++ {
			go func() {
				defer done.Done()
				runtime.LockOSThread() // exits with the goroutine
				started.Done()
				started.Wait() // n distinct threads exist now
				s := 0
				for i := 0; i < 10_000_000; i++ {
					s += i ^ (s >> 3)
				}
				sink.Add(int64(s))
			}()
		}
		done.Wait()
		after, err := c.read()
		if err != nil {
			t.Fatal(err)
		}
		return after - before
	}
	one := spin(1)
	const n = 16 // more threads than the process had when the counter opened
	if got := spin(n); got < n*one*9/10 {
		t.Fatalf("%d threads counted %d instructions, one thread %d", n, got, one)
	}
}

// corruptingHandler adds one to the action of every n-th answer.
func corruptingHandler(n int64) func(http.Handler) http.Handler {
	var count atomic.Int64
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			rw := &memWriter{h: w.Header()}
			next.ServeHTTP(rw, r)
			body := rw.buf.Bytes()
			if count.Add(1)%n == 0 {
				var d map[string]any
				if json.Unmarshal(body, &d) == nil {
					d["action"] = float64((int(d["action"].(float64)) + 1) % len(abr.DefaultBitratesKbps))
					body, _ = json.Marshal(d)
				}
			}
			if rw.code != 0 {
				w.WriteHeader(rw.code)
			}
			w.Write(body)
		})
	}
}

// serveOnce builds a fixture, offers one short phase and returns the run's
// outcome.
func serveOnce(t *testing.T, wrap func(http.Handler) http.Handler) *outcome {
	t.Helper()
	f, err := newServeFixture(5, filepath.Join(t.TempDir(), "serve"), wrap)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := f.close(); err != nil {
			t.Error(err)
		}
	}()
	w, err := newWaiter()
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	d := &loadGen{clients: f.clients[:1], waits: []*waiter{w}, pool: f.pool, check: f.check, actions: len(abr.DefaultBitratesKbps)}
	o := newOutcome()
	o.set("serve.mismatch", 0)
	r := &serveRun{d: d, o: o, seed: 5}
	if _, err := r.offer(2000, 500*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	return o
}

// TestServedDecisionsMatchOracle: a healthy server passes the oracle, and a
// deliberately corrupted decision fails the run.
func TestServedDecisionsMatchOracle(t *testing.T) {
	o := serveOnce(t, nil)
	if o.values["serve.mismatch"] != 0 || len(o.problems) != 0 || o.failed != 0 || o.attempted != 1000 {
		t.Fatalf("healthy server: mismatch %v, failed %d of %d, problems %v", o.values["serve.mismatch"], o.failed, o.attempted, o.problems)
	}

	o = serveOnce(t, corruptingHandler(100))
	if m := o.values["serve.mismatch"]; m < 9 || float64(o.failed) != m {
		t.Fatalf("corrupted decisions: mismatch %v, failed %d, want about 10 of each", m, o.failed)
	}
	res, err := o.result(perLayer, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct {
		t.Fatal("a run with corrupted decisions reported correct")
	}
}

// TestServeRuns: both modes of serve-http run end to end on a short
// budget and measure every metric of their catalog. Only the closed loop
// must serve every request: the traced run's fixed open-loop rates can
// exceed what a slow host (or the race detector) keeps up with, and the
// run then rightly reports failed requests.
func TestServeRuns(t *testing.T) {
	ic, err := newInstrCounter()
	if err != nil {
		t.Skip("no hardware instruction counter:", err)
	}
	defer ic.close()
	for _, traced := range []bool{false, true} {
		o, err := runServe(3, time.Second, traced, t.TempDir(), &traceWriter{}, ic)
		if err != nil {
			t.Fatalf("traced %v: %v", traced, err)
		}
		if !traced && (len(o.problems) != 0 || o.failed != 0 || o.attempted == 0) {
			t.Fatalf("traced %v: failed %d of %d, problems %v", traced, o.failed, o.attempted, o.problems)
		}
		catalog, name := endToEnd, "op_minstr"
		if traced {
			catalog, name = perLayer, "serve.transport_us"
		}
		if _, err := o.result(catalog, !traced); err != nil {
			t.Fatalf("traced %v: %v", traced, err)
		}
		if o.values[name] <= 0 {
			t.Fatalf("traced %v: %s = %v", traced, name, o.values[name])
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics the
// program prints in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("BENCHMARK.json not present:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i].Name != m.name || got[i].Unit != m.unit {
				t.Fatalf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", kind, i, got[i].Name, got[i].Unit, m.name, m.unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if got, want := len(names), 3; got != want || names[0] != "genet-abr" || names[1] != "genet-cc" || names[2] != "serve-http" {
		t.Fatalf("workloads %v, want genet-abr, genet-cc, serve-http", names)
	}
}
