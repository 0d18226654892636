package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"github.com/genet-go/genet/internal/abr"
	"github.com/genet-go/genet/internal/cc"
	"github.com/genet-go/genet/internal/ckpt"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/nn"
	"github.com/genet-go/genet/internal/obs"
	"github.com/genet-go/genet/internal/rl"
)

// microResult is one row of the BENCH_*.json baseline. NsPerOp and the
// other headline numbers are medians over the interleaved repetitions;
// NsPerOpReps keeps the raw per-rep values so a later -compare can derive a
// noise-aware tolerance from the observed spread.
type microResult struct {
	Name        string    `json:"name"`
	Iterations  int       `json:"iterations"`
	NsPerOp     float64   `json:"ns_per_op"`
	BytesPerOp  int64     `json:"bytes_per_op"`
	AllocsPerOp int64     `json:"allocs_per_op"`
	NsPerOpReps []float64 `json:"ns_per_op_reps,omitempty"`
}

// scalingPoint is one point of the multi-core rollout scaling curve: the
// vectorized ABR collect at a fixed worker count.
type scalingPoint struct {
	Name    string  `json:"name"`
	Workers int     `json:"workers"`
	NsPerOp float64 `json:"ns_per_op"`
	Speedup float64 `json:"speedup"` // vs the 1-worker point of the same curve
}

// microBaseline captures the machine context alongside the numbers so
// baselines from different hosts are not compared blindly: -compare gates
// time-per-op only when CPUModel and NumCPU match, and allocation counts
// (machine-independent) always.
type microBaseline struct {
	GoVersion  string         `json:"go_version"`
	GOARCH     string         `json:"goarch"`
	NumCPU     int            `json:"num_cpu"`
	GOMAXPROCS int            `json:"gomaxprocs,omitempty"`
	CPUModel   string         `json:"cpu_model,omitempty"`
	Reps       int            `json:"reps,omitempty"`
	Results    []microResult  `json:"results"`
	Scaling    []scalingPoint `json:"scaling,omitempty"`
}

// cpuModel returns the CPU model string from /proc/cpuinfo (empty when
// unavailable, e.g. off Linux).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			if _, v, ok := strings.Cut(name, ":"); ok {
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

// median returns the median of xs (xs is reordered).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	n := len(xs)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// medianInt64 is median for int64 samples.
func medianInt64(xs []int64) int64 {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	n := len(xs)
	if n == 0 {
		return 0
	}
	return xs[n/2]
}

// ccMinibatch is the PPO minibatch of rl.DefaultGaussianConfig.
const ccMinibatch = 64

// newCCNet returns the CC policy/value network shape (31→32→16→1, the
// rl.DefaultGaussianConfig layers) and a [64 x obs] minibatch for it.
func newCCNet(seed int64) (*nn.MLP, []float64) {
	rng := rand.New(rand.NewSource(seed))
	m := nn.MustMLP(rng, nn.Tanh, cc.ObsSize, 32, 16, 1)
	x := make([]float64, ccMinibatch*cc.ObsSize)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return m, x
}

// runMicro runs the RL hot-path micro-benchmarks via testing.Benchmark and
// writes a JSON baseline to outPath, so the perf trajectory of the training
// loop is tracked in-repo from PR to PR (BENCH_1.json is this PR's
// baseline). The suite mirrors the root-package Benchmark* functions of the
// same names; it is duplicated here because test files are not importable.
func runMicro(outPath string, reps int) error {
	if reps < 3 {
		reps = 3 // the noise-aware compare needs a spread estimate
	}
	// Fail on an unwritable destination before spending minutes benchmarking.
	out, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer out.Close()

	const (
		batch   = 100
		actions = 6
	)

	newPolicy := func(seed int64) (*nn.MLP, *rand.Rand) {
		rng := rand.New(rand.NewSource(seed))
		return nn.MustMLP(rng, nn.Tanh, abr.ObsSize, 64, 32, actions), rng
	}

	suite := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"NNForwardBatch", func(b *testing.B) {
			m, rng := newPolicy(8)
			x := make([]float64, batch*abr.ObsSize)
			for i := range x {
				x[i] = rng.Float64()
			}
			s := m.NewScratch(batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ForwardBatch(s, x, batch)
			}
		}},
		{"NNBackwardBatch", func(b *testing.B) {
			m, rng := newPolicy(9)
			x := make([]float64, batch*abr.ObsSize)
			for i := range x {
				x[i] = rng.Float64()
			}
			gradOut := make([]float64, batch*actions)
			for i := range gradOut {
				gradOut[i] = rng.NormFloat64() / batch
			}
			grads := m.NewGrads()
			s := m.NewScratch(batch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ForwardBatchCache(s, x, batch)
				m.BackwardBatch(s, gradOut, grads)
			}
		}},
		{"RLUpdate", func(b *testing.B) {
			rng := rand.New(rand.NewSource(10))
			agent, err := rl.NewDiscreteAgent(rl.DefaultDiscreteConfig(abr.ObsSize, actions), rng)
			if err != nil {
				b.Fatal(err)
			}
			gen := abr.GenFromConfig(env.ABRSpace(env.RL1).Default(nil))
			e := abr.NewRLEnv(gen)
			bt := agent.Collect(e, 200, rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agent.Update(bt)
				b.StopTimer()
				bt = agent.Collect(e, 200, rng)
				b.StartTimer()
			}
		}},
		// The CC trio prices the PPO update that bounds the CC curriculum:
		// the 31→32→16→1 nets at the 64-row minibatch, and one Update over
		// an 800-step batch (recollected outside the timer).
		{"NNForwardBatchCC", func(b *testing.B) {
			m, x := newCCNet(14)
			s := m.NewScratch(ccMinibatch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ForwardBatch(s, x, ccMinibatch)
			}
		}},
		{"NNBackwardParamsCC", func(b *testing.B) {
			m, x := newCCNet(15)
			s := m.NewScratch(ccMinibatch)
			m.ForwardBatchCache(s, x, ccMinibatch)
			gradOut := make([]float64, ccMinibatch)
			for i := range gradOut {
				gradOut[i] = x[i] / ccMinibatch
			}
			grads := m.NewGrads()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.BackwardBatchParams(s, gradOut, grads)
			}
		}},
		{"RLUpdateGaussianCC", func(b *testing.B) {
			rng := rand.New(rand.NewSource(16))
			agent, err := rl.NewGaussianAgent(rl.DefaultGaussianConfig(cc.ObsSize, 1), rng)
			if err != nil {
				b.Fatal(err)
			}
			e := cc.NewRLEnv(cc.GenFromConfig(env.CCSpace(env.RL1).Default(nil)))
			bt := agent.Collect(e, 800, rng)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agent.Update(bt, rng)
				b.StopTimer()
				bt = agent.Collect(e, 800, rng)
				b.StartTimer()
			}
		}},
		{"CheckpointWrite", func(b *testing.B) {
			rng := rand.New(rand.NewSource(13))
			agent, err := rl.NewDiscreteAgent(rl.DefaultDiscreteConfig(abr.ObsSize, actions), rng)
			if err != nil {
				b.Fatal(err)
			}
			dir, err := os.MkdirTemp("", "genet-micro")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			path := filepath.Join(dir, "bench.ckpt")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var state bytes.Buffer
				if err := agent.SaveState(&state); err != nil {
					b.Fatal(err)
				}
				w := ckpt.NewWriter()
				if err := w.Add("agent", state.Bytes()); err != nil {
					b.Fatal(err)
				}
				if err := w.AddGob("rng", ckpt.RandState{Seed: 13, Count: uint64(i)}); err != nil {
					b.Fatal(err)
				}
				if err := w.WriteFile(path); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"CheckpointRead", func(b *testing.B) {
			rng := rand.New(rand.NewSource(13))
			agent, err := rl.NewDiscreteAgent(rl.DefaultDiscreteConfig(abr.ObsSize, actions), rng)
			if err != nil {
				b.Fatal(err)
			}
			var state bytes.Buffer
			if err := agent.SaveState(&state); err != nil {
				b.Fatal(err)
			}
			dir, err := os.MkdirTemp("", "genet-micro")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			path := filepath.Join(dir, "bench.ckpt")
			w := ckpt.NewWriter()
			if err := w.Add("agent", state.Bytes()); err != nil {
				b.Fatal(err)
			}
			if err := w.AddGob("rng", ckpt.RandState{Seed: 13}); err != nil {
				b.Fatal(err)
			}
			if err := w.WriteFile(path); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := ckpt.ReadFile(path)
				if err != nil {
					b.Fatal(err)
				}
				sec, err := f.Section("agent")
				if err != nil {
					b.Fatal(err)
				}
				if _, err := rl.LoadDiscreteAgentState(bytes.NewReader(sec)); err != nil {
					b.Fatal(err)
				}
				var rst ckpt.RandState
				if err := f.Gob("rng", &rst); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// RLTrainIterationABR is the production training hot path: the
		// vectorized engine over the native in-place-regenerating ABR env,
		// exactly what the harnesses run. RLTrainIterationABRScalar is the
		// legacy per-env path, kept so the vec-vs-scalar gap stays visible
		// from baseline to baseline.
		{"RLTrainIterationABR", func(b *testing.B) {
			rng := rand.New(rand.NewSource(10))
			agent, err := rl.NewDiscreteAgent(rl.DefaultDiscreteConfig(abr.ObsSize, actions), rng)
			if err != nil {
				b.Fatal(err)
			}
			venv := abr.NewVecEnv(abr.IntoFromConfig(env.ABRSpace(env.RL1).Default(nil)), 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agent.TrainIterationVec(venv, batch, rng)
			}
		}},
		{"RLTrainIterationABRScalar", func(b *testing.B) {
			rng := rand.New(rand.NewSource(10))
			agent, err := rl.NewDiscreteAgent(rl.DefaultDiscreteConfig(abr.ObsSize, actions), rng)
			if err != nil {
				b.Fatal(err)
			}
			gen := abr.GenFromConfig(env.ABRSpace(env.RL1).Default(nil))
			makeEnv := func(r *rand.Rand) rl.DiscreteEnv { return abr.NewRLEnv(gen) }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agent.TrainIteration(makeEnv, 2, batch, rng)
			}
		}},
		{"CheckpointReadPooled", func(b *testing.B) {
			rng := rand.New(rand.NewSource(13))
			agent, err := rl.NewDiscreteAgent(rl.DefaultDiscreteConfig(abr.ObsSize, actions), rng)
			if err != nil {
				b.Fatal(err)
			}
			var state bytes.Buffer
			if err := agent.SaveState(&state); err != nil {
				b.Fatal(err)
			}
			dir, err := os.MkdirTemp("", "genet-micro")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(dir)
			path := filepath.Join(dir, "bench.ckpt")
			w := ckpt.NewWriter()
			if err := w.Add("agent", state.Bytes()); err != nil {
				b.Fatal(err)
			}
			if err := w.AddGob("rng", ckpt.RandState{Seed: 13}); err != nil {
				b.Fatal(err)
			}
			if err := w.WriteFile(path); err != nil {
				b.Fatal(err)
			}
			pool := ckpt.NewReadPool()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f, err := pool.ReadFile(path)
				if err != nil {
					b.Fatal(err)
				}
				sec, err := f.Section("agent")
				if err != nil {
					b.Fatal(err)
				}
				if _, err := rl.LoadDiscreteAgentState(bytes.NewReader(sec)); err != nil {
					b.Fatal(err)
				}
				var rst ckpt.RandState
				if err := f.Gob("rng", &rst); err != nil {
					b.Fatal(err)
				}
			}
		}},
		// The span-overhead pair: the RL hot path is instrumented with
		// flight-recorder spans, so the disabled (nil-recorder) cost must
		// stay at zero allocations and a handful of nanoseconds —
		// RLTrainIterationABR above IS the disabled path and must match
		// earlier baselines alloc-for-alloc. The enabled variants price the
		// opt-in cost of -rundir/-introspect.
		{"SpanStartEndDisabled", func(b *testing.B) {
			var rec *obs.Recorder
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp := rec.Start("rl/update")
				if rec.Enabled() {
					sp.EndArgs(obs.Arg{K: "transitions", V: float64(i)})
				} else {
					sp.End()
				}
			}
		}},
		{"SpanStartEndEnabled", func(b *testing.B) {
			rec := obs.NewRecorder(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sp := rec.Start("rl/update")
				if rec.Enabled() {
					sp.EndArgs(obs.Arg{K: "transitions", V: float64(i)})
				} else {
					sp.End()
				}
			}
		}},
		{"RLTrainIterationABRRecorded", func(b *testing.B) {
			rng := rand.New(rand.NewSource(10))
			agent, err := rl.NewDiscreteAgent(rl.DefaultDiscreteConfig(abr.ObsSize, actions), rng)
			if err != nil {
				b.Fatal(err)
			}
			agent.Recorder = obs.NewRecorder(0)
			venv := abr.NewVecEnv(abr.IntoFromConfig(env.ABRSpace(env.RL1).Default(nil)), 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agent.TrainIterationVec(venv, batch, rng)
			}
		}},
		// ABREpisodeMPC is one RobustMPC session, the baseline half of every
		// ABR gap-to-baseline evaluation. Its allocations are per episode
		// (session, observation, result slices), never per chunk.
		{"ABREpisodeMPC", func(b *testing.B) {
			cfg := env.ABRSpace(env.RL3).Default(env.ABRDefaults())
			inst, err := abr.NewInstance(cfg, nil, rand.New(rand.NewSource(2)))
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inst.Evaluate(abr.NewRobustMPC())
			}
		}},
	}

	base := microBaseline{
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Reps:       reps,
	}
	// Repetitions are interleaved — the full suite runs end to end reps
	// times, not each benchmark reps times back to back — so slow drift in
	// machine state (thermal, cache pollution from another tenant) lands
	// across all benchmarks instead of biasing one, and the per-rep spread
	// honestly reflects run-to-run noise.
	type agg struct {
		iters  int
		ns     []float64
		bytes  []int64
		allocs []int64
	}
	aggs := make([]agg, len(suite))
	for rep := 0; rep < reps; rep++ {
		for i, mb := range suite {
			fmt.Fprintf(os.Stderr, "micro %s (rep %d/%d)...\n", mb.name, rep+1, reps)
			r := testing.Benchmark(mb.fn)
			a := &aggs[i]
			a.iters = r.N
			a.ns = append(a.ns, float64(r.T.Nanoseconds())/float64(r.N))
			a.bytes = append(a.bytes, r.AllocedBytesPerOp())
			a.allocs = append(a.allocs, r.AllocsPerOp())
		}
	}
	for i, mb := range suite {
		a := &aggs[i]
		repsCopy := append([]float64(nil), a.ns...)
		base.Results = append(base.Results, microResult{
			Name:        mb.name,
			Iterations:  a.iters,
			NsPerOp:     median(a.ns),
			BytesPerOp:  medianInt64(a.bytes),
			AllocsPerOp: medianInt64(a.allocs),
			NsPerOpReps: repsCopy,
		})
	}
	base.Scaling = runScalingSweep()

	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		return err
	}
	if _, err := out.Write(append(data, '\n')); err != nil {
		return err
	}
	return out.Close()
}

// sweepWorkerCounts are the rollout worker counts of the scaling curve.
var sweepWorkerCounts = []int{1, 2, 4, 8}

// runScalingSweep benchmarks the vectorized ABR collect at fixed worker
// counts and returns the scaling curve. Results are bit-identical at every
// point (the engine's determinism contract), so the curve isolates pure
// scheduling overhead/parallel speedup. On a single-core machine the curve
// is flat by construction; the committed BENCH_*.json records the machine's
// NumCPU so flat curves are interpretable.
func runScalingSweep() []scalingPoint {
	const (
		width   = 8
		perSlot = 100
	)
	var points []scalingPoint
	base := 0.0
	for _, workers := range sweepWorkerCounts {
		w := workers
		fmt.Fprintf(os.Stderr, "scaling VecCollectABR workers=%d...\n", w)
		r := testing.Benchmark(func(b *testing.B) {
			rng := rand.New(rand.NewSource(10))
			agent, err := rl.NewDiscreteAgent(rl.DefaultDiscreteConfig(abr.ObsSize, len(abr.DefaultBitratesKbps)), rng)
			if err != nil {
				b.Fatal(err)
			}
			agent.RolloutWorkers = w
			venv := abr.NewVecEnv(abr.IntoFromConfig(env.ABRSpace(env.RL1).Default(nil)), width)
			seeds := make([]int64, width)
			for i := range seeds {
				seeds[i] = rng.Int63()
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				agent.CollectVec(venv, perSlot, seeds)
			}
		})
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		if base == 0 {
			base = ns
		}
		points = append(points, scalingPoint{
			Name:    "VecCollectABR",
			Workers: w,
			NsPerOp: ns,
			Speedup: base / ns,
		})
	}
	return points
}
