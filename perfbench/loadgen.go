package main

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"github.com/genet-go/genet/internal/obs"
	"github.com/genet-go/genet/internal/serve"
)

// The benchmark drives serve-http with its own load generator: one worker
// per connection, each connection one keep-alive serve.Client. Closed loop,
// each worker sends as soon as its previous answer arrives. Open loop, it
// replaces serve.RunOpenLoop, which starts each request's clock at dispatch
// and spawns a goroutine (and so, on the default transport, a connection)
// per in-flight request: here the workers take the requests of the seeded
// serve.ArrivalSchedule in order, a free worker waits for the next
// request's due time and sends it, a busy one leaves it to the next worker
// to free up, and every latency is measured from the due time, so waiting
// for a connection counts.

// outcome classes of one offered request.
const (
	outOK       uint8 = iota
	outError          // transport error or non-200 status (shed, timeout, ...)
	outTorn           // 200 whose decision is outside the action space
	outMismatch       // valid 200 whose action differs from the oracle's
	outExpired        // never sent: still queued maxSendLate after its due time
)

// maxSendLate bounds how long a request may wait for a free connection
// before the load generator gives up on it (a failed request). It keeps a rung far
// past capacity from queueing for many seconds after its schedule ends.
const maxSendLate = 250 * time.Millisecond

// checker is the oracle for a served decision: the action in-process
// Model.Decide returns on pool observation idx for the model version the
// response is stamped with.
type checker func(version uint64, idx int, action int) bool

// phase is one load phase's raw record, one slot per request in send
// order (every request of an open-loop phase, a sample of a closed-loop
// one), and its counts.
type phase struct {
	rate     float64
	sched    []time.Duration // due (open loop) or send (closed loop) times from the phase start
	latency  []time.Duration // completion minus sched
	sendLate []time.Duration // send (worker pickup) minus due time
	outcome  []uint8
	elapsed  time.Duration // first due time to last completion

	attempted, failed, mismatched int
}

// count tallies the outcomes of a phase that kept every request.
func (p *phase) count() {
	p.attempted = len(p.outcome)
	for _, o := range p.outcome {
		if o != outOK {
			p.failed++
		}
		if o == outMismatch {
			p.mismatched++
		}
	}
}

// window is the span of sched times over which one tail percentile is
// taken. The reported tail is the median over a phase's windows: a host
// stall of a few ms (the baseline host shows several every 10 s even under
// a bare spin loop) lands in one window instead of setting the phase's
// tail.
const window = 250 * time.Millisecond

// windowPct returns the median over the phase's windows of each window's
// q-th latency percentile in µs (failures count as misses), and the q-th
// percentile of the last window alone.
func (p *phase) windowPct(q float64) (med, last float64) {
	lat, sched := p.latenciesUS(), p.sched
	var per []float64
	for lo := 0; lo < len(lat); {
		end := sched[lo] + window
		hi := lo
		for hi < len(lat) && sched[hi] < end {
			hi++
		}
		per = append(per, pct(lat[lo:hi], q))
		lo = hi
	}
	return median(per), per[len(per)-1]
}

// latenciesUS returns every request's latency in µs; failed requests count
// as +Inf, so they miss any latency limit.
func (p *phase) latenciesUS() []float64 {
	out := make([]float64, len(p.latency))
	for i, d := range p.latency {
		if p.outcome[i] != outOK {
			out[i] = inf
			continue
		}
		out[i] = us(d)
	}
	return out
}

// spinBelow is the wait under which a worker spins instead of arming its
// timer; at about 5 µs of timer overshoot, shorter timer waits would be all
// overshoot.
const spinBelow = 10 * time.Microsecond

// loadGen offers load to one server over a fixed set of keep-alive
// connections.
type loadGen struct {
	clients []*serve.Client
	waits   []*waiter // one timer per client
	pool    [][]float64
	check   checker
	actions int // size of the discrete action space
	// rec, when set, records one span per request around the client call,
	// tagged with the request's trace ID (the traced run only).
	rec       *obs.Recorder
	traceNext uint64
}

// run offers one request per schedule offset, starting now. A timer error
// aborts the phase: requests it never offered must not be read as served.
func (d *loadGen) run(ctx context.Context, rate float64, sched []time.Duration) (*phase, error) {
	n := len(sched)
	p := &phase{
		rate:     rate,
		sched:    sched,
		latency:  make([]time.Duration, n),
		sendLate: make([]time.Duration, n),
		outcome:  make([]uint8, n),
	}
	start := time.Now()
	traceBase := d.traceNext
	d.traceNext += uint64(n)

	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, len(d.clients))
	lasts := make([]time.Time, len(d.clients))
	for w := range d.clients {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c, timer := d.clients[w], d.waits[w]
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				due := start.Add(sched[i])
				if wait := time.Until(due); wait > spinBelow {
					if err := timer.sleep(wait); err != nil {
						errs[w] = err
						next.Store(int64(n)) // stop the other workers
						return
					}
				}
				for time.Now().Before(due) {
					// Spin the last few µs: cheaper than a timer round trip.
				}
				p.sendLate[i] = time.Since(due)
				if p.sendLate[i] > maxSendLate {
					p.latency[i], p.outcome[i] = p.sendLate[i], outExpired
					continue
				}
				idx := i % len(d.pool)
				rctx := ctx
				var sp obs.Span
				var tid obs.TraceID
				if d.rec != nil {
					tid = obs.NewTraceID(0, traceBase+uint64(i)+1)
					rctx = obs.WithTrace(ctx, tid)
					sp = d.rec.StartOn(benchTrack, "bench/client")
				}
				dec, err := c.DecideCtx(rctx, d.pool[idx])
				done := time.Now()
				if d.rec != nil {
					sp.EndArgs(obs.Arg{K: obs.ArgTrace, V: tid.Float()})
				}
				p.latency[i] = done.Sub(due)
				lasts[w] = done
				p.outcome[i] = d.classify(dec, err, idx)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if n > 0 {
		last := start
		for _, t := range lasts {
			if t.After(last) {
				last = t
			}
		}
		p.elapsed = last.Sub(start.Add(sched[0]))
	}
	p.count()
	return p, nil
}

// closedSample is the closed loop's sampling stride: every request is
// checked and counted, every closedSample-th one's latency is kept. At
// about 70 k requests/s, keeping every latency would grow the heap by
// tens of MB, and a bigger live heap would slow the server's GC cadence
// below what it runs at in production.
const closedSample = 8

// closedLoop sends back to back on every connection for dur: each worker
// sends its next request as soon as the previous answer arrives. It returns
// the sampled requests in send order (only the failed ones unless sample is
// set), each latency running from send to answer and sched holding the
// send offsets, plus the number of requests sent in each whole second.
// Without samples the phase's memory does not grow with the throughput the
// host happens to give it.
func (d *loadGen) closedLoop(ctx context.Context, dur time.Duration, sample bool) (*phase, []float64) {
	type rec struct {
		sent, lat time.Duration
		out       uint8
	}
	nw := len(d.clients)
	per := make([][]rec, nw)
	perSec := make([][]int, nw)
	attempted := make([]int, nw)
	failed := make([]int, nw)
	mismatched := make([]int, nw)
	start := time.Now()
	var wg sync.WaitGroup
	for w := range d.clients {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := d.clients[w]
			counts := make([]int, int(dur/time.Second)+1)
			for n := 0; ; n++ {
				sent := time.Since(start)
				if sent >= dur {
					break
				}
				idx := (n*nw + w) % len(d.pool)
				dec, err := c.DecideCtx(ctx, d.pool[idx])
				lat := time.Since(start) - sent
				out := d.classify(dec, err, idx)
				counts[sent/time.Second]++
				attempted[w]++
				if out != outOK {
					failed[w]++
					if out == outMismatch {
						mismatched[w]++
					}
				}
				if (sample && n%closedSample == 0) || out != outOK {
					per[w] = append(per[w], rec{sent, lat, out})
				}
			}
			perSec[w] = counts
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	// Each worker's records are in send order; merge them.
	total := 0
	for _, rs := range per {
		total += len(rs)
	}
	p := &phase{
		sched:   make([]time.Duration, 0, total),
		latency: make([]time.Duration, 0, total),
		outcome: make([]uint8, 0, total),
		elapsed: elapsed,
	}
	next := make([]int, nw)
	for len(p.sched) < total {
		best := -1
		for w, rs := range per {
			if next[w] < len(rs) && (best < 0 || rs[next[w]].sent < per[best][next[best]].sent) {
				best = w
			}
		}
		r := per[best][next[best]]
		next[best]++
		p.sched = append(p.sched, r.sent)
		p.latency = append(p.latency, r.lat)
		p.outcome = append(p.outcome, r.out)
	}

	var rates []float64
	for sec := 0; time.Duration(sec+1)*time.Second <= dur; sec++ {
		n := 0
		for _, counts := range perSec {
			n += counts[sec]
		}
		rates = append(rates, float64(n))
	}
	for w := range per {
		p.attempted += attempted[w]
		p.failed += failed[w]
		p.mismatched += mismatched[w]
	}
	p.rate = float64(p.attempted) / elapsed.Seconds()
	return p, rates
}

// classify checks one answer against the action space and the oracle.
func (d *loadGen) classify(dec serve.Decision, err error, idx int) uint8 {
	switch {
	case err != nil:
		return outError
	case dec.Action < 0 || dec.Action >= d.actions:
		return outTorn
	case !d.check(dec.ModelVersion, idx, dec.Action):
		return outMismatch
	}
	return outOK
}
