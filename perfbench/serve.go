package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"github.com/genet-go/genet/internal/abr"
	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/metrics"
	"github.com/genet-go/genet/internal/obs"
	"github.com/genet-go/genet/internal/serve"
)

const (
	// poolSize observations, recorded from seeded ABR sessions, are sent
	// round-robin; every one has a precomputed oracle decision per model.
	poolSize = 4096
	// modelIters trains each served model a little, so its decisions
	// depend on the observation.
	modelIters = 4
	// swapEvery is the hot-swap period during every load phase.
	swapEvery = time.Second
	// warmup is a closed-loop phase before any measured one, so
	// connections, pools and the heap are in their steady state.
	warmup = time.Second
	// closedSlices is how many parts the measured closed loop is cut into; an
	// extra fixture is built before each (see measure).
	closedSlices = 10
	// latencyLimit and minSuccess define a ladder rate the server keeps up
	// with (see keepsUp).
	latencyLimit = time.Millisecond
	minSuccess   = 0.999
	// The two fixed offered rates and the capacity ladder (requests/s).
	lightRate    = 5000
	heavyRate    = 15000
	ladderStart  = 30000
	ladderMin    = 1000
	ladderMax    = 200000
	ladderCoarse = 5000
	ladderFine   = 1000
)

// servingDefaults is genet-serve's default robustness configuration, so
// the benchmark measures the data plane as the command deploys it.
var servingDefaults = serve.RobustnessOptions{
	MaxInflight: 256,
	ShedWait:    5 * time.Millisecond,
	Deadline:    time.Second,
	Degrade:     serve.DegradeConfig{QuarantineAfter: 3, ProbeEvery: 16, RecoverAfter: 3},
}

// serveFixture is everything serve-http sets up before timing starts: two
// model files to alternate between, the in-process oracle for each, the
// observation pool, the server and its loopback listener, and one
// keep-alive client connection per CPU.
type serveFixture struct {
	dir      string
	paths    [2]string
	models   [2]*serve.Model
	expect   [2][]int // oracle action per pool observation, per model
	pool     [][]float64
	bodies   [][]byte // the /decide body of each pool observation
	srv      *serve.Server
	hs       *obs.Server
	clients  []*serve.Client
	serveErr atomic.Value
}

// newServeFixture builds the fixture from seed. wrap, when non-nil, wraps
// NewHandler (the traced run's span handler, or a test's fault).
func newServeFixture(seed int64, dir string, wrap func(http.Handler) http.Handler) (_ *serveFixture, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fixture dir: %w", err)
	}
	f := &serveFixture{dir: dir}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	rng := rand.New(rand.NewSource(seed))
	space := env.ABRSpace(env.RL3)
	for j := range f.paths {
		h, err := core.NewABRHarness(space, rng)
		if err != nil {
			return nil, err
		}
		h.Train(env.NewDistribution(space), modelIters, rng)
		var buf bytes.Buffer
		if err := h.Agent.Save(&buf); err != nil {
			return nil, fmt.Errorf("save model: %w", err)
		}
		f.paths[j] = filepath.Join(dir, fmt.Sprintf("model-%d.bin", j))
		if err := os.WriteFile(f.paths[j], buf.Bytes(), 0o644); err != nil {
			return nil, fmt.Errorf("write model: %w", err)
		}
		if f.models[j], err = serve.LoadModel("abr", f.paths[j]); err != nil {
			return nil, err
		}
	}

	for len(f.pool) < poolSize {
		e := abr.NewRLEnv(abr.GenFromConfig(space.Sample(rng)))
		o := e.Reset(rng)
		for step := 0; step < 64 && len(f.pool) < poolSize; step++ {
			f.pool = append(f.pool, append([]float64(nil), o...))
			d, err := serve.FallbackDecision("abr", o)
			if err != nil {
				return nil, err
			}
			var done bool
			if o, _, done = e.Step(d.Action); done {
				break
			}
		}
	}
	for j, m := range f.models {
		f.expect[j] = make([]int, len(f.pool))
		for i, o := range f.pool {
			d, err := m.Decide(o)
			if err != nil {
				return nil, err
			}
			f.expect[j][i] = d.Action
		}
	}
	f.bodies = make([][]byte, len(f.pool))
	for i, o := range f.pool {
		b, err := json.Marshal(serve.DecideRequest{Obs: o})
		if err != nil {
			return nil, err
		}
		f.bodies[i] = b
	}

	live, err := serve.LoadModel("abr", f.paths[0])
	if err != nil {
		return nil, err
	}
	if f.srv, err = serve.New("abr", live, metrics.NewRegistry()); err != nil {
		return nil, err
	}
	f.srv.Configure(servingDefaults)
	handler := serve.NewHandler(f.srv)
	if wrap != nil {
		handler = wrap(handler)
	}
	if f.hs, err = obs.StartHandler("127.0.0.1:0", handler, func(err error) { f.serveErr.Store(err) }); err != nil {
		return nil, err
	}
	for j := 0; j < runtime.NumCPU(); j++ {
		c := serve.NewClientSeeded("http://"+f.hs.Addr, seed+int64(j))
		c.HTTPClient = &http.Client{
			Timeout: 10 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		}
		// One attempt per offered request: a retry would hide a failure
		// and add load the schedule did not offer.
		c.MaxRetries = -1
		c.BreakerThreshold = -1
		if _, err := c.DecideCtx(context.Background(), f.pool[0]); err != nil {
			return nil, fmt.Errorf("connect client %d: %w", j, err)
		}
		f.clients = append(f.clients, c)
	}
	return f, nil
}

// check is the oracle: version v is the initial model (file 0) when odd,
// file 1 when even, since the swapper alternates and every swap must be
// accepted; version 0 marks a fallback decision, which no model made.
func (f *serveFixture) check(v uint64, idx, action int) bool {
	if v == 0 {
		return false
	}
	return f.expect[(v+1)%2][idx] == action
}

func (f *serveFixture) close() error {
	for _, c := range f.clients {
		c.HTTPClient.CloseIdleConnections()
	}
	var err error
	if f.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err = f.hs.Shutdown(ctx)
		cancel()
	}
	if rerr := os.RemoveAll(f.dir); err == nil {
		err = rerr
	}
	if serr, _ := f.serveErr.Load().(error); err == nil && serr != nil {
		err = serr
	}
	return err
}

// spanHandler records a span around NewHandler's ServeHTTP, tagged with
// the request's X-Genet-Trace ID, while a recorder is attached.
type spanHandler struct {
	next http.Handler
	rec  atomic.Pointer[obs.Recorder]
}

func (h *spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := h.rec.Load()
	if rec == nil {
		h.next.ServeHTTP(w, r)
		return
	}
	sp := rec.StartOn(benchTrack+1, "bench/handler")
	h.next.ServeHTTP(w, r)
	tid, _ := obs.ParseTraceID(r.Header.Get(serve.TraceHeader))
	sp.EndArgs(obs.Arg{K: obs.ArgTrace, V: tid.Float()})
}

// swapper hot-swaps the server between the two model files every period
// until halted, so swaps (writes) run beside the decides (reads).
type swapper struct {
	stop, done chan struct{}
	durMS      []float64
	err        error
}

func startSwapper(f *serveFixture, every time.Duration) *swapper {
	s := &swapper{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(every)
		defer t.Stop()
		next := 1
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			want := f.srv.Swaps() + 1
			t0 := time.Now()
			if err := f.srv.SwapFrom(f.paths[next]); err != nil {
				s.err = err
				return
			}
			s.durMS = append(s.durMS, ms(time.Since(t0)))
			if got := f.srv.Swaps(); got != want {
				s.err = fmt.Errorf("swap published version %d, want %d", got, want)
				return
			}
			next ^= 1
		}
	}()
	return s
}

// halt stops the swapper and waits for it to exit.
func (s *swapper) halt() error {
	close(s.stop)
	<-s.done
	return s.err
}

// serveRun is the state one serve-http measurement threads through its
// phases.
type serveRun struct {
	d       *loadGen
	o       *outcome
	spans   *spanHandler // nil unless the run is traced
	instr   *instrCounter
	seed    int64
	phases  int
	workDir string
	setups  []float64 // build time of each fixture, seconds
}

// build builds a fixture from the run's seed and records its build time.
// Each build starts from a collected heap, so whether a GC cycle lands
// inside it does not depend on what ran before.
func (r *serveRun) build(wrap func(http.Handler) http.Handler) (*serveFixture, error) {
	runtime.GC()
	t0 := time.Now()
	f, err := newServeFixture(r.seed, filepath.Join(r.workDir, fmt.Sprintf("serve-%d", len(r.setups))), wrap)
	if err != nil {
		return nil, err
	}
	r.setups = append(r.setups, time.Since(t0).Seconds())
	return f, nil
}

// offer runs one Poisson phase at rate for dur and accounts its requests.
func (r *serveRun) offer(rate float64, dur time.Duration) (*phase, error) {
	r.phases++
	sched, err := serve.ArrivalSchedule(serve.ArrivalPoisson, rate, int(rate*dur.Seconds()), r.seed+int64(r.phases))
	if err != nil {
		return nil, err
	}
	p, err := r.d.run(context.Background(), rate, sched)
	if err != nil {
		return nil, err
	}
	r.account(p)
	return p, nil
}

// account adds a phase's requests to the run's counts; a wrong action
// makes the run incorrect.
func (r *serveRun) account(p *phase) {
	r.o.attempted += int64(p.attempted)
	r.o.failed += int64(p.failed)
	r.o.values["serve.mismatch"] += float64(p.mismatched)
	if p.mismatched > 0 {
		r.o.fail("%d decisions at %.0f/s differ from in-process Model.Decide", p.mismatched, p.rate)
	}
}

// latencyMS reports a phase's latency in ms: the median over all its
// requests for q = 50, the windowed percentile (see window) for tails.
// Failed requests count as misses; if the percentile lands on one, the run
// is incorrect and the phase's whole span stands in as the latency.
func (r *serveRun) latencyMS(p *phase, q float64) float64 {
	v := pct(p.latenciesUS(), 50)
	if q != 50 {
		v, _ = p.windowPct(q)
	}
	if v == inf {
		r.o.fail("p%g at %g/s is a failed request", q, p.rate)
		return ms(p.elapsed)
	}
	return v / 1e3
}

// keepsUp is the ladder's pass test for one rung: at most 0.1% of requests
// fail, the windowed p90 (failures counting as misses) is within the limit,
// and the backlog did not grow (the last window's median is within the
// limit too). The tail is p90, not p99: on the baseline host p99 at any
// rate is set by host stalls and GC cycles and wanders by ±50% between
// runs, so a p99 limit would measure the host, not the server.
func keepsUp(p *phase) bool {
	if float64(p.attempted-p.failed) < minSuccess*float64(p.attempted) {
		return false
	}
	limit := us(latencyLimit)
	p90, _ := p.windowPct(90)
	_, lastP50 := p.windowPct(50)
	return p90 <= limit && lastP50 <= limit
}

// ladder finds the highest rate on the fixed ladderFine grid that keepsUp:
// coarse steps from ladderStart up (or down) to bracket it, then fine steps
// inside the bracket. A rung that fails is offered once more before it
// counts as failed, so one host stall cannot end the climb.
func (r *serveRun) ladder(rung time.Duration) (float64, error) {
	try := func(rate float64) (bool, error) {
		for attempt := 0; attempt < 2; attempt++ {
			p, err := r.offer(rate, rung)
			if err != nil || keepsUp(p) {
				return err == nil, err
			}
		}
		return false, nil
	}
	lo, hi := 0.0, float64(ladderMax)+ladderFine
	ok, err := try(ladderStart)
	if err != nil {
		return 0, err
	}
	if ok {
		lo = ladderStart
		for rate := float64(ladderStart + ladderCoarse); rate <= ladderMax; rate += ladderCoarse {
			if ok, err = try(rate); err != nil {
				return 0, err
			}
			if !ok {
				hi = rate
				break
			}
			lo = rate
		}
	} else {
		hi = ladderStart
		for rate := float64(ladderStart - ladderCoarse); rate >= ladderMin; rate -= ladderCoarse {
			if ok, err = try(rate); err != nil {
				return 0, err
			}
			if ok {
				lo = rate
				break
			}
			hi = rate
		}
	}
	if lo == 0 {
		r.o.fail("no ladder rate down to %d/s kept up (windowed p90 within %v)", ladderMin, latencyLimit)
		return ladderMin, nil
	}
	for rate := lo + ladderFine; rate < hi; rate += ladderFine {
		if ok, err = try(rate); err != nil {
			return 0, err
		}
		if !ok {
			break
		}
		lo = rate
	}
	return lo, nil
}

// runServe measures the serve-http workload.
func runServe(seed int64, seconds time.Duration, traced bool, workDir string, tw *traceWriter, ic *instrCounter) (_ *outcome, err error) {
	o := newOutcome()
	o.set("serve.mismatch", 0)
	r := &serveRun{o: o, seed: seed, instr: ic, workDir: workDir}
	var wrap func(http.Handler) http.Handler
	if traced {
		wrap = func(h http.Handler) http.Handler {
			r.spans = &spanHandler{next: h}
			return r.spans
		}
	}
	f, err := r.build(wrap)
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := f.close(); err == nil {
			err = cerr
		}
	}()

	d := &loadGen{clients: f.clients, pool: f.pool, check: f.check, actions: len(abr.DefaultBitratesKbps)}
	for range f.clients {
		w, err := newWaiter()
		if err != nil {
			return nil, err
		}
		defer w.close()
		d.waits = append(d.waits, w)
	}
	r.d = d

	if traced {
		if err := probeLayers(f, o); err != nil {
			return nil, err
		}
	}
	sw := startSwapper(f, swapEvery)
	err = r.measure(seconds, traced, tw)
	if serr := sw.halt(); serr != nil {
		o.fail("hot swap: %v", serr)
	}
	if err != nil {
		return nil, err
	}
	o.set("setup_s", median(r.setups))
	o.set("serve.swaps", float64(len(sw.durMS)))
	if len(sw.durMS) > 0 {
		o.set("serve.swap_ms", median(sw.durMS))
	}
	return o, nil
}

// measure runs the load phases after a short closed-loop warm-up. The
// untraced run measures the end-to-end metrics closed loop; the traced run
// measures a shorter closed loop's latency and throughput, then offers
// open-loop traffic: the light rate, the heavy rate untraced and traced
// back to back, and the capacity ladder.
func (r *serveRun) measure(seconds time.Duration, traced bool, tw *traceWriter) error {
	o := r.o
	ctx := context.Background()
	warm, _ := r.d.closedLoop(ctx, warmup, false)
	r.account(warm)
	if !traced {
		// The closed loop runs in slices, with a set-up (a fixture built
		// and closed again) before each, outside the counted work: setup_s
		// is the median build, so it samples the host's speed, which on a
		// shared host changes from one second to the next, across the
		// whole run instead of at one moment. The peak resident memory is
		// the highest of the slices', each mark restarted after its
		// set-up.
		var minstr, peak float64
		var n int
		for i := 0; i < closedSlices; i++ {
			extra, err := r.build(nil)
			if err != nil {
				return err
			}
			if err := extra.close(); err != nil {
				return err
			}
			if err := resetPeakRSS(); err != nil {
				return err
			}
			var p *phase
			g, err := goPhase(r.instr, func() error {
				p, _ = r.d.closedLoop(ctx, seconds/closedSlices, false)
				return nil
			})
			if err != nil {
				return err
			}
			r.account(p)
			minstr += g.minstr
			n += p.attempted
			rss, err := peakRSSMB()
			if err != nil {
				return err
			}
			peak = math.Max(peak, rss)
		}
		o.set("op_minstr", minstr/float64(n))
		o.set("peak_rss_mb", peak)
		return nil
	}

	// At least one whole second: decide.closed_rps is a median over
	// seconds.
	closed, perSecond := r.d.closedLoop(ctx, max(seconds/10, time.Second), true)
	r.account(closed)
	o.set("decide.closed_p50_us", 1e3*r.latencyMS(closed, 50))
	// p95, not p90: with a GC cycle every few ms, about a tenth of round
	// trips overlap one, and p90 flips between the two sides of that edge
	// from run to run.
	o.set("decide.closed_p95_us", 1e3*r.latencyMS(closed, 95))
	o.set("decide.closed_rps", median(perSecond))

	light, err := r.offer(lightRate, seconds*3/20)
	if err != nil {
		return err
	}
	o.set("decide.r5k.p50_us", 1e3*r.latencyMS(light, 50))
	o.set("decide.r5k.p90_us", 1e3*r.latencyMS(light, 90))
	var heavy *phase
	g, err := goPhase(r.instr, func() error {
		var err error
		heavy, err = r.offer(heavyRate, seconds/5)
		return err
	})
	if err != nil {
		return err
	}
	g.record(o)
	o.set("decide.r15k.p50_us", 1e3*r.latencyMS(heavy, 50))
	o.set("decide.r15k.p90_us", 1e3*r.latencyMS(heavy, 90))
	late := make([]float64, len(heavy.sendLate))
	for i, d := range heavy.sendLate {
		late[i] = us(d)
	}
	o.set("serve.send_late_p99_us", pct(late, 99))
	o.set("serve.send_late_max_us", pct(late, 100))
	if err := r.tracedHeavy(seconds/5, r.latencyMS(heavy, 50), tw); err != nil {
		return err
	}
	maxRPS, err := r.ladder(seconds / 20)
	if err != nil {
		return err
	}
	o.set("decide.max_rps", maxRPS)
	return nil
}

// tracedHeavy offers the heavy rate with client and handler spans on and
// attributes a decide's time to transport and handler.
func (r *serveRun) tracedHeavy(dur time.Duration, untracedP50MS float64, tw *traceWriter) error {
	n := int(heavyRate * dur.Seconds())
	rec := obs.NewRecorder(2*n + 64)
	r.spans.rec.Store(rec)
	r.d.rec = rec
	p, err := r.offer(heavyRate, dur)
	r.d.rec = nil
	r.spans.rec.Store(nil)
	if err != nil {
		return err
	}
	r.o.set("trace.overhead_r15k_p50_us", 1e3*(r.latencyMS(p, 50)-untracedP50MS))

	client := map[float64]float64{}
	handler := map[float64]float64{}
	for _, ev := range rec.Events() {
		switch ev.Name {
		case "bench/client":
			client[ev.Args[obs.ArgTrace]] = ev.Dur
		case "bench/handler":
			handler[ev.Args[obs.ArgTrace]] = ev.Dur
		}
	}
	var transport, handlerUS, clientUS []float64
	for tid, c := range client {
		h, ok := handler[tid]
		if !ok {
			continue
		}
		transport = append(transport, c-h)
		handlerUS = append(handlerUS, h)
		clientUS = append(clientUS, c)
	}
	if len(transport) == 0 {
		return fmt.Errorf("traced run matched no client span to a handler span")
	}
	tw.add(rec)
	o := r.o
	o.set("serve.transport_us", median(transport))
	o.set("serve.handler_p99_us", pct(handlerUS, 99))
	o.set("serve.transport_codec_share", (median(transport)+o.values["serve.codec_us"])/median(clientUS))
	return nil
}
