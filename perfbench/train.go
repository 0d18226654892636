package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/genet-go/genet/internal/abr"
	"github.com/genet-go/genet/internal/cc"
	"github.com/genet-go/genet/internal/core"
	"github.com/genet-go/genet/internal/env"
	"github.com/genet-go/genet/internal/guard"
	"github.com/genet-go/genet/internal/obs"
	"github.com/genet-go/genet/internal/rl"
)

// The fig9 "-scale ci" budget (internal/experiments budgetFor(CI)): the
// benchmark times the same fixed-budget curriculum run that figure trains.
const (
	ciWarmup        = 20
	ciRounds        = 5
	ciItersPerRound = 8
	ciBOSteps       = 10
	ciEnvsPerEval   = 4
)

const (
	// gapSeeds is how many trained models the traced run scores on the
	// held-out test set.
	gapSeeds = 4
	// testEnvs is the size of the held-out test set (fig9's ci testEnvs).
	testEnvs = 50
)

// trainCase is one Genet curriculum workload.
type trainCase struct {
	useCase string // "abr" or "cc"
	// seeds is how many distinct training seeds one benchmark run derives
	// from its workload seed. A run's work varies between training seeds
	// (it depends on what the search promotes) by about 25% on ABR and 8%
	// on CC, so the reported mean pools enough of them to keep its spread
	// between workload seeds to a few percent.
	seeds int
}

func (c trainCase) space() *env.Space {
	if c.useCase == "cc" {
		return env.CCSpace(env.RL3)
	}
	return env.ABRSpace(env.RL3)
}

// newHarness builds the harness fig9 trains (steps per iteration at the ci
// step multiplier of 1) from rng, exactly as internal/experiments does.
func (c trainCase) newHarness(rng *rand.Rand) (core.Harness, error) {
	if c.useCase == "cc" {
		h, err := core.NewCCHarness(c.space(), rng)
		if err != nil {
			return nil, err
		}
		h.StepsPerIter = 800
		return h, nil
	}
	h, err := core.NewABRHarness(c.space(), rng)
	if err != nil {
		return nil, err
	}
	h.StepsPerIter = 400
	return h, nil
}

func (c trainCase) options() core.Options {
	o := core.Options{
		Rounds:        ciRounds,
		ItersPerRound: ciItersPerRound,
		BOSteps:       ciBOSteps,
		EnvsPerEval:   ciEnvsPerEval,
		WarmupIters:   ciWarmup,
	}
	if c.useCase == "cc" {
		// CC raw rewards scale with link bandwidth; fig9 searches on the
		// normalized gap.
		o.Objective = core.NormalizedGapObjective()
	}
	return o
}

// testCase is one held-out test environment: a configuration drawn
// uniformly from the RL3 space and the instance seed Eval builds it from.
type testCase struct {
	cfg  env.Config
	seed int64
}

// trainRun is one curriculum run's outcome.
type trainRun struct {
	harness core.Harness
	timed   *timedHarness
	report  *core.Report
	hash    [32]byte
	wall    time.Duration
}

// runCurriculum runs one fixed-budget curriculum from seed. The harness is
// built from the same rng stream the run then draws from, as in
// internal/experiments. Only Trainer.Run is timed. A wrapped run also
// times each Train and Eval call and counts its instructions on ic.
func (c trainCase) runCurriculum(seed int64, opts core.Options, wrap bool, rec *obs.Recorder, ic *instrCounter) (*trainRun, error) {
	rng := rand.New(rand.NewSource(seed))
	h, err := c.newHarness(rng)
	if err != nil {
		return nil, err
	}
	run := &trainRun{harness: h}
	if wrap {
		run.timed = &timedHarness{Harness: h, rec: rec, instr: ic}
		h = run.timed
	}
	opts.Recorder = rec
	tr := core.NewTrainer(h, opts)
	t0 := time.Now()
	rep, err := tr.Run(rng)
	run.wall = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("curriculum run (seed %d): %w", seed, err)
	}
	run.report = rep
	run.hash = reportHash(rep)
	return run, nil
}

// checkReport applies the correctness checks a healthy fixed-budget run must
// pass: every round completes with a full search budget, every reward and
// score is finite, no search query failed, and no guard intervention was
// recorded.
func checkReport(rep *core.Report, opts core.Options) error {
	if rep.Interrupted {
		return fmt.Errorf("run interrupted")
	}
	if len(rep.WarmupCurve) != opts.WarmupIters {
		return fmt.Errorf("warm-up ran %d of %d iterations", len(rep.WarmupCurve), opts.WarmupIters)
	}
	if len(rep.Rounds) != opts.Rounds {
		return fmt.Errorf("%d of %d rounds completed", len(rep.Rounds), opts.Rounds)
	}
	for _, r := range rep.WarmupCurve {
		if !finite(r) {
			return fmt.Errorf("non-finite warm-up reward %v", r)
		}
	}
	for _, round := range rep.Rounds {
		if round.SearchEvals != opts.BOSteps {
			return fmt.Errorf("round %d: %d search evals, want %d", round.Round, round.SearchEvals, opts.BOSteps)
		}
		if len(round.TrainRewards) != opts.ItersPerRound {
			return fmt.Errorf("round %d: %d training iterations, want %d", round.Round, len(round.TrainRewards), opts.ItersPerRound)
		}
		if !finite(round.Score) {
			return fmt.Errorf("round %d: non-finite score %v", round.Round, round.Score)
		}
		for _, r := range round.TrainRewards {
			if !finite(r) {
				return fmt.Errorf("round %d: non-finite training reward %v", round.Round, r)
			}
		}
		if len(round.Recoveries) != 0 {
			return fmt.Errorf("round %d: %d guard interventions", round.Round, len(round.Recoveries))
		}
		if round.Search != nil && round.Search.Failures != 0 {
			return fmt.Errorf("round %d: %d failed search queries", round.Round, round.Search.Failures)
		}
	}
	return nil
}

// reportHash digests every number a Report carries, bit for bit.
func reportHash(rep *core.Report) [32]byte {
	h := sha256.New()
	var buf [8]byte
	f := func(x float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		h.Write(buf[:])
	}
	fs := func(xs []float64) {
		f(float64(len(xs)))
		for _, x := range xs {
			f(x)
		}
	}
	h.Write([]byte(rep.Strategy))
	fs(rep.WarmupCurve)
	for _, r := range rep.Rounds {
		f(float64(r.Round))
		fs(r.Promoted.Values())
		f(r.Score)
		f(float64(r.SearchEvals))
		fs(r.TrainRewards)
		if r.Search != nil {
			for _, e := range r.Search.Evals {
				fs(e.X)
				f(e.Value)
			}
		}
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// testSet draws the held-out test environments from the workload seed.
func (c trainCase) testSet(seed int64) []testCase {
	rng := rand.New(rand.NewSource(seed ^ 0x7e57))
	space := c.space()
	out := make([]testCase, testEnvs)
	for i := range out {
		out[i] = testCase{cfg: space.Sample(rng), seed: rng.Int63()}
	}
	return out
}

// testGap is the trained model's mean gap-to-baseline over the test set
// (normalized per environment on CC, whose raw rewards scale with
// bandwidth). Not timed.
func (c trainCase) testGap(h core.Harness, tests []testCase) float64 {
	sum := 0.0
	for _, tc := range tests {
		ev := h.Eval(tc.cfg, 1, core.NeedBaseline, rand.New(rand.NewSource(tc.seed)))
		sum += ev.NormGapToBaseline()
	}
	return sum / float64(len(tests))
}

// episodeCosts times single evaluation episodes of the trained agent and of
// the rule-based baseline over the test set, calling Instance.Evaluate
// directly (one goroutine), and returns the median microseconds of each.
func (c trainCase) episodeCosts(h core.Harness, tests []testCase) (rlUS, baseUS float64, err error) {
	var rlT, blT []float64
	for _, tc := range tests {
		switch hh := h.(type) {
		case *core.ABRHarness:
			inst, err := abr.NewInstance(tc.cfg, nil, rand.New(rand.NewSource(tc.seed)))
			if err != nil {
				return 0, 0, err
			}
			t0 := time.Now()
			inst.Evaluate(&abr.AgentPolicy{Agent: hh.Agent})
			rlT = append(rlT, us(time.Since(t0)))
			t0 = time.Now()
			inst.Evaluate(hh.NewBaseline())
			blT = append(blT, us(time.Since(t0)))
		case *core.CCHarness:
			inst, err := cc.NewInstance(tc.cfg, nil, rand.New(rand.NewSource(tc.seed)))
			if err != nil {
				return 0, 0, err
			}
			t0 := time.Now()
			inst.Evaluate(&cc.AgentSender{Agent: hh.Agent}, rand.New(rand.NewSource(tc.seed)))
			rlT = append(rlT, us(time.Since(t0)))
			t0 = time.Now()
			inst.Evaluate(hh.NewBaseline(), rand.New(rand.NewSource(tc.seed)))
			blT = append(blT, us(time.Since(t0)))
		default:
			return 0, 0, fmt.Errorf("unexpected harness %T", h)
		}
	}
	return median(rlT), median(blT), nil
}

// updateFLOPs is the nominal floating-point work of one agent update over
// n transitions, computed from the layer sizes (not counted): per sample
// and epoch, 2 FLOPs per weight forward and 4 backward, for the policy and
// the value network.
func (c trainCase) updateFLOPs(n float64) float64 {
	var macs float64
	epochs := 1.0
	layer := func(in int, hidden []int, out int) float64 {
		s, prev := 0.0, in
		for _, w := range hidden {
			s += float64(prev * w)
			prev = w
		}
		return s + float64(prev*out)
	}
	if c.useCase == "cc" {
		cfg := rl.DefaultGaussianConfig(cc.ObsSize, 1)
		macs = layer(cfg.ObsSize, cfg.Hidden, cfg.ActionDim) + layer(cfg.ObsSize, cfg.Hidden, 1)
		epochs = float64(cfg.Epochs)
	} else {
		cfg := rl.DefaultDiscreteConfig(abr.ObsSize, len(abr.DefaultBitratesKbps))
		macs = layer(cfg.ObsSize, cfg.Hidden, cfg.NumActions) + layer(cfg.ObsSize, cfg.Hidden, 1)
	}
	return 6 * macs * n * epochs
}

// armGuard returns opts with a zero-config guard, which contains rollout
// panics and vetoes non-finite updates; any intervention fails the run.
func armGuard(opts core.Options) (core.Options, *guard.Guard) {
	g := guard.New(guard.Config{})
	opts.Guard = g
	return opts, g
}

// guardSeeds is how many training seeds also get a guarded run.
const guardSeeds = 2

// runTrain measures one genet-* workload. Timed runs cycle through the
// training seeds until the measuring time is up (completing at least one
// cycle); every repeat of a seed must reproduce its first run bit for bit.
// The reported work and time are means over seeds, which pool their spread
// more efficiently than a median would.
func runTrain(c trainCase, seed int64, seconds time.Duration, traced bool, tw *traceWriter, ic *instrCounter) (*outcome, error) {
	o := newOutcome()
	rng := rand.New(rand.NewSource(seed))
	seeds := make([]int64, c.seeds)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}

	// Set-up: the harnesses (agents and their config spaces) one cycle
	// of runs needs. It is built again before every timed run and
	// setup_s is the median, so it samples the host's speed, which on a
	// shared host changes from one second to the next, across the whole
	// run instead of at one moment.
	var setups []float64
	setup := func() error {
		t0 := time.Now()
		for _, s := range seeds {
			if _, err := c.newHarness(rand.New(rand.NewSource(s))); err != nil {
				return err
			}
		}
		setups = append(setups, time.Since(t0).Seconds())
		return nil
	}

	opts := c.options()
	// The guard is a health check, not part of the timed runs: armed, it
	// routes rollouts through the scalar containment path instead of the
	// default vectorized one.
	for _, s := range seeds[:guardSeeds] {
		gopts, g := armGuard(opts)
		o.attempted++
		run, err := c.runCurriculum(s, gopts, false, nil, nil)
		if err == nil {
			err = checkReport(run.report, gopts)
		}
		if st := g.Snapshot(); err == nil && (st.Skipped != 0 || st.RolloutFaults != 0 || st.Quarantines != 0 || st.Rollbacks != 0) {
			err = fmt.Errorf("guard intervened: %s", st)
		}
		if err != nil {
			o.failed++
			o.fail("guarded run, seed %d: %v", s, err)
		}
	}

	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	// first holds each seed's first report digest; trained keeps the
	// models the traced run evaluates on the test set.
	first := make([][32]byte, c.seeds)
	seen := make([]bool, c.seeds)
	var trained []core.Harness
	work := make([][]goStats, c.seeds)
	wall := make([][]float64, c.seeds)
	var layers []layerSample
	var overhead []float64
	check := func(k int, run *trainRun, err error) bool {
		o.attempted++
		if err == nil {
			err = checkReport(run.report, opts)
		}
		if err == nil && seen[k] && run.hash != first[k] {
			err = fmt.Errorf("report differs from the seed's first run")
		}
		if err != nil {
			o.failed++
			o.fail("seed %d: %v", seeds[k], err)
			return false
		}
		if !seen[k] {
			first[k], seen[k] = run.hash, true
			if traced && len(trained) < gapSeeds {
				trained = append(trained, run.harness)
			}
		}
		return true
	}
	// The untraced loop covers every training seed and repeats the first;
	// the traced loop pairs each untraced run with a traced one and needs
	// only a few seeds.
	minRuns := c.seeds + 1
	if traced {
		minRuns = gapSeeds
	}
	start := time.Now()
	for i := 0; i < minRuns || time.Since(start) < seconds; i++ {
		k := i % c.seeds
		if err := setup(); err != nil {
			return nil, err
		}
		var run *trainRun
		g, err := goPhase(ic, func() error {
			var err error
			run, err = c.runCurriculum(seeds[k], opts, false, nil, nil)
			return err
		})
		if !check(k, run, err) {
			continue
		}
		work[k] = append(work[k], g)
		wall[k] = append(wall[k], run.wall.Seconds())
		if !traced {
			continue
		}
		rec := obs.NewRecorder(1 << 12)
		tr, err := c.runCurriculum(seeds[k], opts, true, rec, ic)
		if !check(k, tr, err) {
			continue
		}
		overhead = append(overhead, (tr.wall - run.wall).Seconds())
		layers = append(layers, c.layerSample(tr, rec))
		tw.add(rec)
	}

	// Each seed's repeats are reduced to their median first, then the
	// seeds are averaged: the spread between seeds (which configurations
	// the search promotes) is far larger than between repeats, and a mean
	// pools it better than a median would.
	perSeed := func(f func(goStats) float64) float64 {
		var xs []float64
		for _, gs := range work {
			if len(gs) == 0 {
				continue
			}
			ys := make([]float64, len(gs))
			for i, g := range gs {
				ys[i] = f(g)
			}
			xs = append(xs, median(ys))
		}
		return mean(xs)
	}
	var walls []float64
	for _, w := range wall {
		if len(w) > 0 {
			walls = append(walls, median(w))
		}
	}
	o.set("setup_s", median(setups))
	if len(walls) == 0 {
		return o, nil
	}
	o.set("op_minstr", perSeed(func(g goStats) float64 { return g.minstr }))
	o.set("train.run_s", mean(walls))
	if !traced {
		return o, nil
	}

	recordLayers(o, layers)
	o.set("trace.overhead_run_s", median(overhead))
	goStats{
		allocMB:   perSeed(func(g goStats) float64 { return g.allocMB }),
		gcCycles:  perSeed(func(g goStats) float64 { return g.gcCycles }),
		gcPauseMS: perSeed(func(g goStats) float64 { return g.gcPauseMS }),
	}.record(o)

	tests := c.testSet(seed)
	var gaps []float64
	for _, h := range trained {
		gaps = append(gaps, c.testGap(h, tests))
	}
	o.set("train.test_gap", mean(gaps))
	if len(trained) > 0 {
		rlUS, blUS, err := c.episodeCosts(trained[0], tests)
		if err != nil {
			return nil, err
		}
		o.set(c.useCase+".episode_rl_us", rlUS)
		o.set(c.useCase+".episode_baseline_us", blUS)
	}
	return o, nil
}

// layerSample is one traced run's attribution.
type layerSample struct {
	run, eval, train, rollout, update float64 // seconds
	evalMinstr, trainMinstr           float64
	evalEnvs, trainIters, steps       float64
	flops                             float64
}

// layerSample reads the timing wrapper and the recorder's rl/* spans.
func (c trainCase) layerSample(run *trainRun, rec *obs.Recorder) layerSample {
	s := layerSample{
		run:         run.wall.Seconds(),
		eval:        run.timed.evalTime.Seconds(),
		train:       run.timed.trainTime.Seconds(),
		evalMinstr:  float64(run.timed.evalInstr) / 1e6,
		trainMinstr: float64(run.timed.trainInstr) / 1e6,
		evalEnvs:    float64(run.timed.evalEnvs),
		trainIters:  float64(run.timed.trainIters),
	}
	for _, ev := range rec.Events() {
		switch ev.Name {
		case "rl/rollout":
			s.rollout += ev.Dur / 1e6
			s.steps += ev.Args["envs"] * ev.Args["steps_per_env"]
		case "rl/update":
			s.update += ev.Dur / 1e6
			s.flops += c.updateFLOPs(ev.Args["transitions"])
		}
	}
	return s
}

// recordLayers reports the median of each attribution over the traced runs.
func recordLayers(o *outcome, ls []layerSample) {
	col := func(f func(layerSample) float64) float64 {
		xs := make([]float64, len(ls))
		for i, l := range ls {
			xs[i] = f(l)
		}
		return median(xs)
	}
	o.set("core.eval_s", col(func(l layerSample) float64 { return l.eval }))
	o.set("core.eval_minstr", col(func(l layerSample) float64 { return l.evalMinstr }))
	o.set("core.eval_envs", col(func(l layerSample) float64 { return l.evalEnvs }))
	o.set("core.eval_env_ms", col(func(l layerSample) float64 { return 1e3 * l.eval / l.evalEnvs }))
	o.set("core.eval_share", col(func(l layerSample) float64 { return l.eval / l.run }))
	o.set("core.train_s", col(func(l layerSample) float64 { return l.train }))
	o.set("core.train_minstr", col(func(l layerSample) float64 { return l.trainMinstr }))
	o.set("core.train_iters", col(func(l layerSample) float64 { return l.trainIters }))
	o.set("core.train_share", col(func(l layerSample) float64 { return l.train / l.run }))
	o.set("core.train_self_s", col(func(l layerSample) float64 { return l.train - l.rollout - l.update }))
	o.set("core.search_self_s", col(func(l layerSample) float64 { return l.run - l.train - l.eval }))
	o.set("rl.rollout_s", col(func(l layerSample) float64 { return l.rollout }))
	o.set("rl.rollout_share", col(func(l layerSample) float64 { return l.rollout / l.run }))
	o.set("rl.train_steps", col(func(l layerSample) float64 { return l.steps }))
	o.set("rl.update_s", col(func(l layerSample) float64 { return l.update }))
	o.set("rl.update_share", col(func(l layerSample) float64 { return l.update / l.run }))
	o.set("rl.update_gflops", col(func(l layerSample) float64 { return l.flops / l.update / 1e9 }))
}
