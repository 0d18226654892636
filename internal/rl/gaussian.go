package rl

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"github.com/genet-go/genet/internal/faults"
	"github.com/genet-go/genet/internal/guard"
	"github.com/genet-go/genet/internal/metrics"
	"github.com/genet-go/genet/internal/nn"
	"github.com/genet-go/genet/internal/obs"
	"github.com/genet-go/genet/internal/par"
)

// GaussianConfig configures a GaussianAgent (PPO over a diagonal Gaussian
// policy, the Aurora congestion-control setup).
type GaussianConfig struct {
	ObsSize   int
	ActionDim int
	Hidden    []int
	LR        float64
	Gamma     float64
	Lambda    float64
	Entropy   float64
	ClipEps   float64 // PPO clipping epsilon
	Epochs    int     // PPO epochs per update
	Minibatch int     // minibatch size (0 = full batch)
	ClipNorm  float64
	InitStd   float64 // initial action standard deviation
	MinStd    float64 // floor on the learned std
}

// DefaultGaussianConfig returns the PPO hyperparameters used in the CC
// experiments.
func DefaultGaussianConfig(obsSize, actionDim int) GaussianConfig {
	return GaussianConfig{
		ObsSize:   obsSize,
		ActionDim: actionDim,
		Hidden:    []int{32, 16},
		LR:        3e-3,
		Gamma:     0.99,
		Lambda:    0.95,
		Entropy:   1e-3,
		ClipEps:   0.2,
		Epochs:    4,
		Minibatch: 64,
		ClipNorm:  5,
		InitStd:   1.0,
		MinStd:    0.15,
	}
}

// GaussianAgent is a PPO learner with a state-independent diagonal
// covariance: the policy network outputs the action mean; log standard
// deviations are free parameters trained alongside it.
type GaussianAgent struct {
	cfg    GaussianConfig
	policy *nn.MLP // obs -> action means
	value  *nn.MLP // obs -> V(s)
	logStd []float64
	pOpt   *nn.Adam
	vOpt   *nn.Adam
	sOpt   *adamVec

	// UpdateWorkers caps the goroutines for the sharded minibatch gradient
	// pass (0 means GOMAXPROCS). Results are bit-identical for every value;
	// see DiscreteAgent.UpdateWorkers.
	UpdateWorkers int

	// RolloutWorkers caps the goroutines for vectorized rollout collection
	// in TrainIterationVec (0 means GOMAXPROCS); bit-identical for every
	// value. See DiscreteAgent.RolloutWorkers.
	RolloutWorkers int

	// Metrics optionally receives per-update telemetry; nil (the default)
	// is free on the hot path. See DiscreteAgent.Metrics.
	Metrics *metrics.Registry

	// Guard optionally arms the training-health watchdog; nil is free.
	// See DiscreteAgent.Guard.
	Guard *guard.Guard

	// Faults optionally injects deterministic faults for chaos testing;
	// nil is free. See DiscreteAgent.Faults.
	Faults *faults.Injector

	// Recorder optionally records rl/rollout and rl/update spans; nil is
	// free. See DiscreteAgent.Recorder.
	Recorder *obs.Recorder

	pGrads *nn.Grads
	vGrads *nn.Grads
	sGrads []float64
	obsBuf []float64 // [mb x ObsSize] gathered minibatch observations
	stdBuf []float64
	shards []*gaussianShard // reusable per-shard gradient state

	// Pooled per-iteration transients for TrainIterationVec; see the
	// DiscreteAgent fields of the same names.
	collectPool []*gaussianCollectState
	seedBuf     []int64
	rngPool     []*rand.Rand
	batchPtrs   []*Batch
	epRew       []float64
	vecObs      []float64
	vecGroups   []*gaussianVecGroup
	slotViews   []slotContinuousEnv
	merged      Batch
	advBuf      []float64
	retBuf      []float64
	idxBuf      []int
}

// gaussianShard is the private workspace of one PPO gradient shard.
type gaussianShard struct {
	pGrads, vGrads *nn.Grads
	sGrads         []float64
	ps, vs         *nn.Scratch
	gmBuf          []float64 // [shard x ActionDim] dLoss/dmean
	vGradBuf       []float64 // [shard x 1] dLoss/dV
	stats          UpdateStats
}

func (a *GaussianAgent) ensureShards(k int) {
	for len(a.shards) < k {
		a.shards = append(a.shards, &gaussianShard{
			pGrads:   a.policy.NewGrads(),
			vGrads:   a.value.NewGrads(),
			sGrads:   make([]float64, a.cfg.ActionDim),
			ps:       a.policy.NewScratch(updateShardSize),
			vs:       a.value.NewScratch(updateShardSize),
			gmBuf:    make([]float64, updateShardSize*a.cfg.ActionDim),
			vGradBuf: make([]float64, updateShardSize),
		})
	}
}

func (a *GaussianAgent) updateWorkers() int {
	if a.UpdateWorkers > 0 {
		return a.UpdateWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// Reserve pre-sizes the minibatch buffers and shard pool for updates over
// batches of up to steps transitions (idempotent; growth stays automatic).
func (a *GaussianAgent) Reserve(steps int) {
	if steps <= 0 {
		return
	}
	mb := a.cfg.Minibatch
	if mb <= 0 || mb > steps {
		mb = steps
	}
	a.obsBuf = growFloats(a.obsBuf, mb*a.cfg.ObsSize)
	a.ensureShards(numShards(mb))
}

// NewGaussianAgent builds an agent with freshly initialized networks.
func NewGaussianAgent(cfg GaussianConfig, rng *rand.Rand) (*GaussianAgent, error) {
	if cfg.ObsSize <= 0 || cfg.ActionDim <= 0 {
		return nil, fmt.Errorf("rl: invalid gaussian agent dims obs=%d act=%d", cfg.ObsSize, cfg.ActionDim)
	}
	pSizes := append(append([]int{cfg.ObsSize}, cfg.Hidden...), cfg.ActionDim)
	vSizes := append(append([]int{cfg.ObsSize}, cfg.Hidden...), 1)
	policy, err := nn.NewMLP(rng, nn.Tanh, pSizes...)
	if err != nil {
		return nil, err
	}
	value, err := nn.NewMLP(rng, nn.Tanh, vSizes...)
	if err != nil {
		return nil, err
	}
	logStd := make([]float64, cfg.ActionDim)
	for i := range logStd {
		logStd[i] = math.Log(math.Max(cfg.InitStd, 1e-3))
	}
	a := &GaussianAgent{
		cfg: cfg, policy: policy, value: value, logStd: logStd,
		pOpt: nn.NewAdam(cfg.LR), vOpt: nn.NewAdam(cfg.LR), sOpt: newAdamVec(cfg.LR, cfg.ActionDim),
	}
	a.initGradState()
	return a, nil
}

func (a *GaussianAgent) initGradState() {
	a.pGrads = a.policy.NewGrads()
	a.vGrads = a.value.NewGrads()
	a.sGrads = make([]float64, a.cfg.ActionDim)
	a.stdBuf = make([]float64, a.cfg.ActionDim)
}

// Config returns the agent's configuration.
func (a *GaussianAgent) Config() GaussianConfig { return a.cfg }

// Mean returns the deterministic policy output at obs (evaluation mode).
func (a *GaussianAgent) Mean(obs []float64) []float64 {
	return a.policy.Forward(obs)
}

// Value returns the critic's estimate at obs.
func (a *GaussianAgent) Value(obs []float64) float64 {
	return a.value.Forward(obs)[0]
}

// Std returns the current per-dimension action standard deviations.
func (a *GaussianAgent) Std() []float64 {
	return a.stdInto(make([]float64, len(a.logStd)))
}

// stdInto writes the per-dimension standard deviations into dst.
func (a *GaussianAgent) stdInto(dst []float64) []float64 {
	for i, ls := range a.logStd {
		dst[i] = math.Max(math.Exp(ls), a.cfg.MinStd)
	}
	return dst
}

// Sample draws an action from N(mean(obs), diag(std^2)) and returns its log
// density.
func (a *GaussianAgent) Sample(obs []float64, rng *rand.Rand) (action []float64, logProb float64) {
	mean := a.Mean(obs)
	std := a.Std()
	action = make([]float64, len(mean))
	for i := range mean {
		action[i] = mean[i] + std[i]*rng.NormFloat64()
	}
	return action, a.logProb(mean, std, action)
}

func (a *GaussianAgent) logProb(mean, std, action []float64) float64 {
	lp := 0.0
	for i := range mean {
		z := (action[i] - mean[i]) / std[i]
		lp += -0.5*z*z - math.Log(std[i]) - 0.5*math.Log(2*math.Pi)
	}
	return lp
}

// Collect rolls the stochastic policy through env, restarting episodes until
// maxSteps transitions are gathered (at least one full episode).
//
// Like DiscreteAgent.Collect, the per-step path is allocation-free: forward
// scratches and an obs/action arena are owned by the call, and concurrent
// Collect calls on one agent are safe (the networks are only read).
func (a *GaussianAgent) Collect(env ContinuousEnv, maxSteps int, rng *rand.Rand) *Batch {
	ps := a.policy.NewScratch(1)
	var vs *nn.Scratch // lazily built; only the truncation bootstrap needs it
	std := make([]float64, a.cfg.ActionDim)
	var ar floatArena
	d := a.cfg.ObsSize
	obsMat := make([]float64, 0, (maxSteps+1)*d) // packed rows for the value pass
	b := &Batch{Transitions: make([]Transition, 0, maxSteps+1)}
	for len(b.Transitions) < maxSteps || b.Episodes == 0 {
		obs := env.Reset(rng)
		epReward := 0.0
		for {
			mean := a.policy.ForwardBatch(ps, obs, 1)
			a.stdInto(std)
			action := ar.clone(mean)
			for i := range action {
				action[i] = mean[i] + std[i]*rng.NormFloat64()
			}
			logp := a.logProb(mean, std, action)
			next, reward, done := env.Step(action)
			epReward += reward
			obsMat = append(obsMat, obs...)
			tr := Transition{
				Obs: ar.clone(obs), ActionC: action,
				LogProb: logp, Reward: reward, Done: done,
			}
			obs = next
			if !done && len(b.Transitions)+1 >= maxSteps && b.Episodes > 0 {
				tr.Truncate = true
				if vs == nil {
					vs = a.value.NewScratch(1)
				}
				tr.LastVal = a.value.ForwardBatch(vs, obs, 1)[0]
				b.Transitions = append(b.Transitions, tr)
				a.fillValues(b, obsMat)
				return b
			}
			b.Transitions = append(b.Transitions, tr)
			if done {
				b.Episodes++
				b.TotalReward += epReward
				break
			}
		}
	}
	a.fillValues(b, obsMat)
	return b
}

// fillValues runs the critic over the whole rollout in one batched forward
// and fills Transition.Value. The per-step estimates feed only GAE at update
// time, so deferring them trades n latency-bound single-row forwards for one
// throughput-bound batched pass.
func (a *GaussianAgent) fillValues(b *Batch, obsMat []float64) {
	a.fillValuesWith(b, obsMat, a.value.NewScratch(len(b.Transitions)))
}

// fillValuesWith is fillValues over a caller-owned scratch (the pooled path
// used by the vectorized engine).
func (a *GaussianAgent) fillValuesWith(b *Batch, obsMat []float64, vs *nn.Scratch) {
	n := len(b.Transitions)
	vals := a.value.ForwardBatch(vs, obsMat, n)
	for i := range b.Transitions {
		b.Transitions[i].Value = vals[i]
	}
}

// Update performs a PPO update: Epochs passes of clipped-surrogate
// minibatch gradient steps over the batch.
//
// Each minibatch gathers its (shuffled) observations into a contiguous
// [mb x ObsSize] matrix and runs the batched kernels over fixed-size shards
// on parallel workers, reducing shard gradients in index order — the same
// determinism contract as DiscreteAgent.Update: results do not depend on
// the worker count.
func (a *GaussianAgent) Update(batch *Batch, rng *rand.Rand) UpdateStats {
	n := len(batch.Transitions)
	if n == 0 {
		return UpdateStats{}
	}
	a.advBuf = growFloats(a.advBuf, n)
	a.retBuf = growFloats(a.retBuf, n)
	adv, returns := gaeInto(a.advBuf, a.retBuf, batch, a.cfg.Gamma, a.cfg.Lambda)
	NormalizeAdvantages(adv)

	mb := a.cfg.Minibatch
	if mb <= 0 || mb > n {
		mb = n
	}
	var stats, mbMark UpdateStats
	a.idxBuf = growInts(a.idxBuf, n)
	idx := a.idxBuf
	for i := range idx {
		idx[i] = i
	}

	d := a.cfg.ObsSize
	a.obsBuf = growFloats(a.obsBuf, mb*d)
	a.ensureShards(numShards(mb))

	updates := 0.0
	for epoch := 0; epoch < max(1, a.cfg.Epochs); epoch++ {
		rng.Shuffle(n, func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < n; start += mb {
			end := min(start+mb, n)
			ids := idx[start:end]
			bn := float64(end - start)
			mbMark = stats
			for r, i := range ids {
				copy(a.obsBuf[r*d:(r+1)*d], batch.Transitions[i].Obs)
			}
			a.stdInto(a.stdBuf)
			a.pGrads.Zero()
			a.vGrads.Zero()
			clear(a.sGrads)
			shards := numShards(len(ids))
			kt := a.Metrics.StartTimer("rl/kernel_seconds")
			par.ForN(shards, a.updateWorkers(), func(si int) {
				ss, se := shardBounds(si, len(ids))
				a.shards[si].run(a, batch, ids, adv, returns, ss, se, bn)
			})
			kt.Stop()
			for _, sh := range a.shards[:shards] {
				a.pGrads.Add(sh.pGrads, 1)
				a.vGrads.Add(sh.vGrads, 1)
				for k := range a.sGrads {
					a.sGrads[k] += sh.sGrads[k]
				}
				stats.PolicyLoss += sh.stats.PolicyLoss
				stats.ValueLoss += sh.stats.ValueLoss
				stats.KL += sh.stats.KL
				stats.ClipFrac += sh.stats.ClipFrac
			}
			if a.Faults.Fire(faults.GradPoison) {
				a.pGrads.Poison(math.NaN())
				a.Metrics.Counter("faults/grad_poison").Inc()
			}
			if a.Guard.Enabled() {
				preP, preV := a.pGrads.GlobalNorm(), a.vGrads.GlobalNorm()
				ent := 0.0
				for _, s := range a.stdBuf {
					ent += 0.5*math.Log(2*math.Pi*math.E) + math.Log(s)
				}
				v := a.Guard.CheckUpdate(guard.UpdateObs{
					PolicyLoss: stats.PolicyLoss - mbMark.PolicyLoss,
					ValueLoss:  stats.ValueLoss - mbMark.ValueLoss,
					Entropy:    ent,
					GradNorm:   preP, ValueGradNorm: preV,
					ParamsFinite: allFinite(a.sGrads) &&
						a.policy.AllFinite() && a.value.AllFinite(),
				})
				if v != guard.Healthy {
					// Skip this minibatch apply and roll its (possibly
					// poisoned) contribution back out of the running
					// stats, so the reported averages cover only the
					// minibatches that actually stepped.
					stats = mbMark
					stats.Skipped = true
					if a.Metrics.Enabled() {
						a.Metrics.Counter("rl/updates_skipped").Inc()
						a.Metrics.Emit("rl/update_skipped",
							metrics.F{K: "verdict", V: float64(v)},
							metrics.F{K: "steps", V: bn})
					}
					continue
				}
			}
			if a.cfg.ClipNorm > 0 {
				a.pGrads.ClipGlobalNorm(a.cfg.ClipNorm)
				a.vGrads.ClipGlobalNorm(a.cfg.ClipNorm)
			}
			stats.GradNorm += a.pGrads.GlobalNorm()
			a.pOpt.Step(a.policy, a.pGrads)
			a.vOpt.Step(a.value, a.vGrads)
			a.sOpt.step(a.logStd, a.sGrads)
			for k := range a.logStd {
				// Keep the std in a sane band.
				a.logStd[k] = clampF(a.logStd[k], math.Log(a.cfg.MinStd), math.Log(2.0))
			}
			updates++
		}
	}
	if updates > 0 {
		stats.PolicyLoss /= updates
		stats.ValueLoss /= updates
		stats.KL /= updates
		stats.ClipFrac /= updates
		stats.GradNorm /= updates
	}
	std := a.Std()
	for _, s := range std {
		stats.Entropy += 0.5*math.Log(2*math.Pi*math.E) + math.Log(s)
	}
	if a.Metrics.Enabled() {
		a.Metrics.Counter("rl/updates").Inc()
		a.Metrics.Counter("rl/steps").Add(int64(n))
		a.Metrics.Emit("rl/update",
			metrics.F{K: "policy_loss", V: stats.PolicyLoss},
			metrics.F{K: "value_loss", V: stats.ValueLoss},
			metrics.F{K: "entropy", V: stats.Entropy},
			metrics.F{K: "grad_norm", V: stats.GradNorm},
			metrics.F{K: "approx_kl", V: stats.KL},
			metrics.F{K: "clip_frac", V: stats.ClipFrac},
			metrics.F{K: "steps", V: float64(n)})
	}
	return stats
}

// run computes shard si's gradient contribution for minibatch rows
// [start,end): ids maps minibatch rows to batch transition indices, the
// gathered observations live in a.obsBuf, and a.stdBuf holds the std
// snapshot for this minibatch. bn is the minibatch size.
func (sh *gaussianShard) run(a *GaussianAgent, batch *Batch, ids []int, adv, returns []float64, start, end int, bn float64) {
	sh.pGrads.Zero()
	sh.vGrads.Zero()
	clear(sh.sGrads)
	sh.stats = UpdateStats{}
	d := a.cfg.ObsSize
	k := a.cfg.ActionDim
	b := end - start
	x := a.obsBuf[start*d : end*d]
	std := a.stdBuf

	means := a.policy.ForwardBatchCache(sh.ps, x, b)
	for r := 0; r < b; r++ {
		i := ids[start+r]
		t := &batch.Transitions[i]
		mean := means[r*k : (r+1)*k]
		logp := a.logProb(mean, std, t.ActionC)
		ratio := math.Exp(logp - t.LogProb)
		sh.stats.KL += (t.LogProb - logp) / bn

		// Clipped surrogate: L = min(r*A, clip(r)*A); gradient flows
		// through r only when unclipped (or when clipping is inactive
		// for this sign of A).
		clipped := ratio < 1-a.cfg.ClipEps || ratio > 1+a.cfg.ClipEps
		if clipped {
			sh.stats.ClipFrac += 1 / bn
		}
		active := !clipped || (adv[i] > 0 && ratio < 1) || (adv[i] < 0 && ratio > 1)
		surr := math.Min(ratio*adv[i], clampF(ratio, 1-a.cfg.ClipEps, 1+a.cfg.ClipEps)*adv[i])
		sh.stats.PolicyLoss += -surr / bn

		gm := sh.gmBuf[r*k : (r+1)*k]
		if active {
			// dL/dmean_j = -A * r * (a_j - mean_j)/std_j^2
			for j := range gm {
				z := (t.ActionC[j] - mean[j]) / (std[j] * std[j])
				gm[j] = -adv[i] * ratio * z / bn
				// dlogp/dlogstd = z^2 - 1 (with z=(a-mu)/std);
				// entropy bonus gradient dH/dlogstd = 1.
				zz := (t.ActionC[j] - mean[j]) / std[j]
				sh.sGrads[j] += (-adv[i]*ratio*(zz*zz-1) - a.cfg.Entropy) / bn
			}
		} else {
			// Clipped-out samples contribute exact zeros through the
			// batched backward (a zero gradOut row is a no-op).
			clear(gm)
		}
	}
	a.policy.BackwardBatchParams(sh.ps, sh.gmBuf[:b*k], sh.pGrads)

	v := a.value.ForwardBatchCache(sh.vs, x, b)
	for r := 0; r < b; r++ {
		i := ids[start+r]
		diff := v[r] - returns[i]
		sh.stats.ValueLoss += 0.5 * diff * diff / bn
		sh.vGradBuf[r] = diff / bn
	}
	a.value.BackwardBatchParams(sh.vs, sh.vGradBuf[:b], sh.vGrads)
}

// TrainIteration samples environments from makeEnv and performs one
// collect-and-update PPO iteration of totalSteps transitions over numEnvs
// environments. Rollouts run on parallel workers with per-environment
// seeds drawn up front, merging in index order (deterministic regardless
// of scheduling).
func (a *GaussianAgent) TrainIteration(makeEnv func(rng *rand.Rand) ContinuousEnv, numEnvs, totalSteps int, rng *rand.Rand) (meanEpReward float64, stats UpdateStats) {
	if numEnvs <= 0 {
		numEnvs = 1
	}
	perEnv := totalSteps / numEnvs
	if perEnv < 1 {
		perEnv = 1
	}
	seeds := make([]int64, numEnvs)
	for i := range seeds {
		seeds[i] = rng.Int63()
	}
	batches := make([]*Batch, numEnvs)
	wrapFaults := a.Faults.SiteEnabled(faults.EnvStepPanic) || a.Faults.SiteEnabled(faults.TraceCorrupt)
	contain := a.Guard.Enabled()
	rt := a.Metrics.StartTimer("rl/rollout_seconds")
	rsp := a.Recorder.Start("rl/rollout")
	par.For(numEnvs, func(i int) {
		envRng := rand.New(rand.NewSource(seeds[i]))
		env := makeEnv(envRng)
		if wrapFaults {
			env = wrapFaultyContinuous(env, a.Faults, seeds[i])
		}
		if contain {
			// See DiscreteAgent.TrainIteration: containment is opt-in
			// via the guard; a contained env contributes no batch.
			defer func() {
				if r := recover(); r != nil {
					batches[i] = nil
					a.Guard.RecordRolloutFault(r)
					a.Metrics.Counter("guard/contained_rollouts").Inc()
				}
			}()
		}
		batches[i] = a.Collect(env, perEnv, envRng)
	})
	rt.Stop()
	if a.Recorder.Enabled() {
		rsp.EndArgs(
			obs.Arg{K: "envs", V: float64(numEnvs)},
			obs.Arg{K: "steps_per_env", V: float64(perEnv)})
	}
	a.Guard.ObserveRollouts()
	return a.mergeAndUpdate(batches, rng)
}

// Clone returns an independent copy of the agent with fresh optimizer state.
func (a *GaussianAgent) Clone() *GaussianAgent {
	c := &GaussianAgent{
		cfg:    a.cfg,
		policy: a.policy.Clone(),
		value:  a.value.Clone(),
		logStd: append([]float64(nil), a.logStd...),
		pOpt:   nn.NewAdam(a.cfg.LR),
		vOpt:   nn.NewAdam(a.cfg.LR),
		sOpt:   newAdamVec(a.cfg.LR, a.cfg.ActionDim),
	}
	c.initGradState()
	return c
}

// adamVec is Adam over a plain float64 vector (the log-std parameters).
type adamVec struct {
	lr, b1, b2, eps float64
	m, v            []float64
	t               int
}

func newAdamVec(lr float64, n int) *adamVec {
	return &adamVec{lr: lr, b1: 0.9, b2: 0.999, eps: 1e-8, m: make([]float64, n), v: make([]float64, n)}
}

func (a *adamVec) step(params, grad []float64) {
	a.t++
	c1 := 1 - math.Pow(a.b1, float64(a.t))
	c2 := 1 - math.Pow(a.b2, float64(a.t))
	for i, g := range grad {
		a.m[i] = a.b1*a.m[i] + (1-a.b1)*g
		a.v[i] = a.b2*a.v[i] + (1-a.b2)*g*g
		params[i] -= a.lr * (a.m[i] / c1) / (math.Sqrt(a.v[i]/c2) + a.eps)
	}
}

func clampF(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
