package main

import (
	"math/rand"
	"time"

	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/faults"
	"github.com/genet-go/genet/internal/guard"
	"github.com/genet-go/genet/internal/metrics"
	"github.com/genet-go/genet/internal/obs"
)

// benchTrack is the flight-recorder track the benchmark's own spans use, so
// they render on a row apart from the trainer's (track 0).
const benchTrack = 7

// timedHarness wraps a core.Harness and times every Train and Eval call the
// trainer makes, from outside, and counts the instructions each retires. It is observation-only: it never touches the
// rng or the arguments, and it forwards all four optional setter interfaces.
// A wrapper that only embedded core.Harness would hide them from NewTrainer,
// which finds them by type assertion, and the run would silently lose its
// rl/* spans, telemetry, guard and fault injection.
type timedHarness struct {
	core.Harness
	rec   *obs.Recorder // nil: time without spans
	instr *instrCounter // nil: time without counting instructions

	trainIters, evalEnvs  int
	trainTime, evalTime   time.Duration
	trainInstr, evalInstr uint64
}

// instrNow reads the process's instruction counter. A read error would
// show in the same counter's reads around every untraced run, which
// report it; here it reads as no instructions.
func (h *timedHarness) instrNow() uint64 {
	n, _ := h.instr.read()
	return n
}

// Train implements core.Harness.
func (h *timedHarness) Train(dist *env.Distribution, iters int, rng *rand.Rand) []float64 {
	sp := h.rec.StartOn(benchTrack, "bench/train")
	t0, i0 := time.Now(), h.instrNow()
	out := h.Harness.Train(dist, iters, rng)
	h.trainTime += time.Since(t0)
	h.trainInstr += h.instrNow() - i0
	sp.End()
	h.trainIters += iters
	return out
}

// Eval implements core.Harness.
func (h *timedHarness) Eval(cfg env.Config, n int, need core.EvalNeed, rng *rand.Rand) core.EvalResult {
	sp := h.rec.StartOn(benchTrack, "bench/eval")
	t0, i0 := time.Now(), h.instrNow()
	out := h.Harness.Eval(cfg, n, need, rng)
	h.evalTime += time.Since(t0)
	h.evalInstr += h.instrNow() - i0
	sp.End()
	h.evalEnvs += n
	return out
}

// SetMetrics implements core.MetricsSetter.
func (h *timedHarness) SetMetrics(m *metrics.Registry) { core.SetHarnessMetrics(h.Harness, m) }

// SetRecorder implements core.RecorderSetter.
func (h *timedHarness) SetRecorder(r *obs.Recorder) { core.SetHarnessRecorder(h.Harness, r) }

// SetGuard implements core.GuardSetter.
func (h *timedHarness) SetGuard(g *guard.Guard) { core.SetHarnessGuard(h.Harness, g) }

// SetFaults implements core.FaultSetter.
func (h *timedHarness) SetFaults(in *faults.Injector) { core.SetHarnessFaults(h.Harness, in) }
