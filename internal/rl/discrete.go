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

// DiscreteConfig configures a DiscreteAgent.
type DiscreteConfig struct {
	ObsSize    int
	NumActions int
	Hidden     []int   // hidden layer widths, e.g. {64, 32}
	LR         float64 // Adam learning rate
	Gamma      float64 // discount
	Lambda     float64 // GAE lambda
	Entropy    float64 // entropy bonus coefficient
	ValueCoef  float64 // value loss coefficient
	ClipNorm   float64 // global gradient clip (0 disables)
}

// DefaultDiscreteConfig returns the hyperparameters used across the ABR and
// LB experiments. Per §4.1, hyperparameters are held fixed in all runs; only
// the environment curriculum varies.
func DefaultDiscreteConfig(obsSize, numActions int) DiscreteConfig {
	return DiscreteConfig{
		ObsSize:    obsSize,
		NumActions: numActions,
		Hidden:     []int{64, 32},
		LR:         5e-3,
		Gamma:      0.99,
		Lambda:     0.95,
		Entropy:    0.1,
		ValueCoef:  0.5,
		ClipNorm:   5,
	}
}

// DiscreteAgent is an advantage actor-critic (A2C/A3C-style) learner over a
// categorical policy, the algorithm family Pensieve and Park use.
type DiscreteAgent struct {
	cfg    DiscreteConfig
	policy *nn.MLP // obs -> action logits
	value  *nn.MLP // obs -> scalar V(s)
	pOpt   *nn.Adam
	vOpt   *nn.Adam
	pGrads *nn.Grads
	vGrads *nn.Grads

	// UpdateWorkers caps the goroutines used for the sharded gradient pass
	// in Update (0 means GOMAXPROCS). The result is bit-identical for every
	// value: the shard partition is fixed (see updateShardSize) and shards
	// reduce in index order, so workers only changes who computes what.
	UpdateWorkers int

	// RolloutWorkers caps the goroutines used for rollout collection in
	// TrainIterationVec (0 means GOMAXPROCS). Bit-identical for every
	// value: each slot owns its rng stream and the batched forward computes
	// every row exactly as a batch of one would, so the worker grouping
	// only changes which goroutine computes what.
	RolloutWorkers int

	// Metrics optionally receives per-update telemetry (loss, entropy, grad
	// norm) and rollout/kernel/update time splits. Nil — the default — is
	// free on the hot path: every metrics call is guarded or nil-safe, and
	// telemetry never touches rng, so enabling it cannot perturb training.
	Metrics *metrics.Registry

	// Guard optionally arms the training-health watchdog: a pre-apply
	// NaN/Inf scan with a skip-update path, rollout panic containment,
	// and rolling divergence statistics. Nil (the default) costs one nil
	// check; an armed guard with healthy updates is a pure observer and
	// keeps training bit-identical.
	Guard *guard.Guard

	// Faults optionally injects deterministic faults (poisoned
	// gradients, env-step panics, corrupted observations) for chaos
	// testing. Nil disables injection at zero cost.
	Faults *faults.Injector

	// Recorder optionally records rl/rollout and rl/update spans in the
	// flight recorder. Nil — the default — costs one nil check per span
	// and zero allocations (see obs.Recorder).
	Recorder *obs.Recorder

	obsBuf []float64        // [n x ObsSize] packed batch observations
	shards []*discreteShard // reusable per-shard gradient state

	// paramsVersion counts optimizer steps; rollout activation caches record
	// it and Update only trusts a cache stamped with the current version.
	paramsVersion uint64
	// trainPCache/trainVCache are the reusable merged rollout caches for
	// TrainIteration's collect-then-update path.
	trainPCache, trainVCache *nn.BatchCache
	// collectPool holds one reusable rollout workspace per TrainIteration
	// env slot, making the steady-state iteration allocation-free. Batches
	// produced from a pooled state are valid until the same slot collects
	// again; TrainIteration consumes them within the iteration.
	collectPool []*discreteCollectState

	// Pooled per-iteration transients for TrainIterationVec: the seed and
	// rng pools, the per-slot batch pointers and episode-reward
	// accumulators, the [K x ObsSize] current-observation matrix, the
	// per-worker lockstep engines, the scalar slot views for the
	// guarded/faulted fallback, the merged batch, and the GAE buffers.
	// Together these make the steady-state iteration allocation-free.
	seedBuf   []int64
	rngPool   []*rand.Rand
	batchPtrs []*Batch
	epRew     []float64
	vecObs    []float64
	vecGroups []*discreteVecGroup
	slotViews []slotDiscreteEnv
	merged    Batch
	advBuf    []float64
	retBuf    []float64
}

// ensureRngs grows the pooled per-slot rng list to k generators and reseeds
// generator i from seedBuf[i] — bit-identical to a fresh
// rand.New(rand.NewSource(seed)) without the two allocations.
func (a *DiscreteAgent) ensureRngs(k int) {
	for len(a.rngPool) < k {
		a.rngPool = append(a.rngPool, rand.New(rand.NewSource(0)))
	}
	for i := 0; i < k; i++ {
		a.rngPool[i].Seed(a.seedBuf[i])
	}
}

// discreteCollectState is the reusable workspace of one rollout: forward
// scratches, activation caches, the obs arena, and the transitions backing
// array.
type discreteCollectState struct {
	ps, vs         *nn.Scratch
	pCache, vCache *nn.BatchCache
	probs          []float64
	ar             floatArena
	trs            []Transition
	batch          Batch // reusable batch header for the vectorized engine
}

func (a *DiscreteAgent) newCollectState(maxSteps int) *discreteCollectState {
	return &discreteCollectState{
		ps:     a.policy.NewScratch(1),
		pCache: a.policy.NewBatchCache(maxSteps + 1),
		vCache: a.value.NewBatchCache(maxSteps + 1),
		probs:  make([]float64, a.cfg.NumActions),
		trs:    make([]Transition, 0, maxSteps+1),
	}
}

func (a *DiscreteAgent) ensureCollectPool(k, maxSteps int) {
	for len(a.collectPool) < k {
		a.collectPool = append(a.collectPool, a.newCollectState(maxSteps))
	}
}

// discreteShard is the private workspace of one gradient shard: its own
// gradient accumulators and forward/backward scratch, so shards never
// contend. Reused across Update calls.
type discreteShard struct {
	pGrads, vGrads *nn.Grads
	ps, vs         *nn.Scratch
	gradBuf        []float64 // [shard x NumActions] dLoss/dlogits
	vGradBuf       []float64 // [shard x 1] dLoss/dV
	probs          []float64 // softmax workspace, one row
	stats          UpdateStats
}

func (a *DiscreteAgent) ensureShards(k int) {
	for len(a.shards) < k {
		a.shards = append(a.shards, &discreteShard{
			pGrads:   a.policy.NewGrads(),
			vGrads:   a.value.NewGrads(),
			ps:       a.policy.NewScratch(updateShardSize),
			vs:       a.value.NewScratch(updateShardSize),
			gradBuf:  make([]float64, updateShardSize*a.cfg.NumActions),
			vGradBuf: make([]float64, updateShardSize),
			probs:    make([]float64, a.cfg.NumActions),
		})
	}
}

func (a *DiscreteAgent) updateWorkers() int {
	if a.UpdateWorkers > 0 {
		return a.UpdateWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// Reserve pre-sizes the batch buffers and shard pool for updates over up to
// steps transitions, so the first training iterations run allocation-free.
// Growth remains automatic; Reserve is an optional warm-up and is idempotent.
func (a *DiscreteAgent) Reserve(steps int) {
	if steps <= 0 {
		return
	}
	a.obsBuf = growFloats(a.obsBuf, steps*a.cfg.ObsSize)
	a.ensureShards(numShards(steps))
}

// NewDiscreteAgent builds an agent with freshly initialized networks drawn
// from rng.
func NewDiscreteAgent(cfg DiscreteConfig, rng *rand.Rand) (*DiscreteAgent, error) {
	if cfg.ObsSize <= 0 || cfg.NumActions <= 1 {
		return nil, fmt.Errorf("rl: invalid discrete agent dims obs=%d actions=%d", cfg.ObsSize, cfg.NumActions)
	}
	pSizes := append(append([]int{cfg.ObsSize}, cfg.Hidden...), cfg.NumActions)
	vSizes := append(append([]int{cfg.ObsSize}, cfg.Hidden...), 1)
	policy, err := nn.NewMLP(rng, nn.Tanh, pSizes...)
	if err != nil {
		return nil, err
	}
	value, err := nn.NewMLP(rng, nn.Tanh, vSizes...)
	if err != nil {
		return nil, err
	}
	a := &DiscreteAgent{
		cfg: cfg, policy: policy, value: value,
		pOpt: nn.NewAdam(cfg.LR), vOpt: nn.NewAdam(cfg.LR),
	}
	a.pGrads = policy.NewGrads()
	a.vGrads = value.NewGrads()
	return a, nil
}

// Config returns the agent's configuration.
func (a *DiscreteAgent) Config() DiscreteConfig { return a.cfg }

// Probs returns the action distribution at obs.
func (a *DiscreteAgent) Probs(obs []float64) []float64 {
	return nn.Softmax(a.policy.Forward(obs))
}

// Value returns the critic's state-value estimate at obs.
func (a *DiscreteAgent) Value(obs []float64) float64 {
	return a.value.Forward(obs)[0]
}

// Sample draws an action from the policy and returns its log-probability.
func (a *DiscreteAgent) Sample(obs []float64, rng *rand.Rand) (action int, logProb float64) {
	probs := a.Probs(obs)
	action = categoricalSample(probs, rng)
	return action, math.Log(math.Max(probs[action], 1e-12))
}

// Greedy returns the argmax action (deterministic evaluation mode).
func (a *DiscreteAgent) Greedy(obs []float64) int {
	return argmaxF(a.policy.Forward(obs))
}

func argmaxF(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// Collect rolls the stochastic policy through env for up to maxSteps steps,
// restarting episodes as they finish, and returns the batch. At least one
// full episode is always collected, even if it exceeds maxSteps.
//
// Collect owns one forward scratch per network and an observation arena for
// the whole rollout, so the per-step cost is allocation-free; it is safe to
// run concurrently with other Collect calls on the same agent (the networks
// are only read).
func (a *DiscreteAgent) Collect(env DiscreteEnv, maxSteps int, rng *rand.Rand) *Batch {
	return a.collectWith(a.newCollectState(maxSteps), env, maxSteps, rng)
}

// collectWith is Collect over a caller-owned workspace. Batches returned
// from a pooled workspace alias its buffers and stay valid only until the
// workspace's next rollout (the TrainIteration pattern: collect, update,
// discard).
func (a *DiscreteAgent) collectWith(st *discreteCollectState, env DiscreteEnv, maxSteps int, rng *rand.Rand) *Batch {
	st.pCache.Reset()
	st.vCache.Reset()
	st.ar.reset()
	b := &Batch{Transitions: st.trs[:0]}
	defer func() { st.trs = b.Transitions[:0] }()
	probs := st.probs
	for len(b.Transitions) < maxSteps || b.Episodes == 0 {
		obs := env.Reset(rng)
		epReward := 0.0
		for {
			nn.SoftmaxInto(probs, a.policy.ForwardBatch(st.ps, obs, 1))
			st.pCache.AppendScratch(st.ps)
			action := categoricalSample(probs, rng)
			logp := math.Log(math.Max(probs[action], 1e-12))
			next, reward, done := env.Step(action)
			epReward += reward
			tr := Transition{
				Obs: st.ar.clone(obs), Action: action,
				LogProb: logp, Reward: reward, Done: done,
			}
			obs = next
			if !done && len(b.Transitions)+1 >= maxSteps && b.Episodes > 0 {
				// Truncate: bootstrap from V(s').
				tr.Truncate = true
				if st.vs == nil {
					st.vs = a.value.NewScratch(1)
				}
				tr.LastVal = a.value.ForwardBatch(st.vs, obs, 1)[0]
				b.Transitions = append(b.Transitions, tr)
				a.finishCollect(b, st)
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
	a.finishCollect(b, st)
	return b
}

// finishCollect fills Transition.Value with one batched critic pass over the
// whole rollout — the per-step value estimates are consumed only by GAE at
// update time, so deferring them converts n latency-bound single-row
// forwards into one throughput-bound batched forward — and attaches the
// recorded policy/value activation caches to the batch for reuse by Update.
func (a *DiscreteAgent) finishCollect(b *Batch, st *discreteCollectState) {
	n := len(b.Transitions)
	vals := a.value.ForwardBatchAppend(st.vCache, st.pCache.Inputs(), n)
	for i := range b.Transitions {
		b.Transitions[i].Value = vals[i]
	}
	b.pCache, b.vCache = st.pCache, st.vCache
	b.cacheOwner = a
	b.cacheVersion = a.paramsVersion
}

// Update performs one actor-critic gradient step on the batch: policy
// gradient with GAE advantages and entropy bonus, plus an MSE critic update.
//
// The pass is batched and sharded: observations are packed into a row-major
// [n x ObsSize] matrix, fixed-size shards of transitions run the batched
// forward/backward kernels on parallel workers (each with private gradient
// accumulators and scratch), and shard gradients reduce in index order. The
// result is deterministic and independent of the worker count.
func (a *DiscreteAgent) Update(batch *Batch) UpdateStats {
	n := len(batch.Transitions)
	if n == 0 {
		return UpdateStats{}
	}
	a.advBuf = growFloats(a.advBuf, n)
	a.retBuf = growFloats(a.retBuf, n)
	adv, returns := gaeInto(a.advBuf, a.retBuf, batch, a.cfg.Gamma, a.cfg.Lambda)
	NormalizeAdvantages(adv)

	// On-policy fast path: reuse the activations recorded during Collect
	// (valid because no optimizer step ran since) and skip every forward.
	cached := batch.cacheOwner == a && batch.cacheVersion == a.paramsVersion &&
		batch.pCache != nil && batch.pCache.Rows() == n &&
		batch.vCache != nil && batch.vCache.Rows() == n
	if !cached {
		d := a.cfg.ObsSize
		a.obsBuf = growFloats(a.obsBuf, n*d)
		for i := range batch.Transitions {
			copy(a.obsBuf[i*d:(i+1)*d], batch.Transitions[i].Obs)
		}
	}

	a.pGrads.Zero()
	a.vGrads.Zero()
	shards := numShards(n)
	a.ensureShards(shards)
	kt := a.Metrics.StartTimer("rl/kernel_seconds")
	par.ForN(shards, a.updateWorkers(), func(si int) {
		start, end := shardBounds(si, n)
		a.shards[si].run(a, batch, adv, returns, start, end, float64(n), cached)
	})
	kt.Stop()

	var stats UpdateStats
	for _, sh := range a.shards[:shards] {
		a.pGrads.Add(sh.pGrads, 1)
		a.vGrads.Add(sh.vGrads, 1)
		stats.PolicyLoss += sh.stats.PolicyLoss
		stats.ValueLoss += sh.stats.ValueLoss
		stats.Entropy += sh.stats.Entropy
	}

	if a.Faults.Fire(faults.GradPoison) {
		a.pGrads.Poison(math.NaN())
		a.Metrics.Counter("faults/grad_poison").Inc()
	}
	// Pre-clip norms feed the guard: clipping bounds the post-clip norm
	// at ClipNorm, which would blind divergence detection, while NaN/Inf
	// pass through the clip unchanged either way.
	var preP, preV float64
	if a.Guard.Enabled() {
		preP, preV = a.pGrads.GlobalNorm(), a.vGrads.GlobalNorm()
	}
	if a.cfg.ClipNorm > 0 {
		a.pGrads.ClipGlobalNorm(a.cfg.ClipNorm)
		a.vGrads.ClipGlobalNorm(a.cfg.ClipNorm)
	}
	stats.GradNorm = a.pGrads.GlobalNorm()
	if a.Guard.Enabled() {
		v := a.Guard.CheckUpdate(guard.UpdateObs{
			PolicyLoss: stats.PolicyLoss, ValueLoss: stats.ValueLoss,
			Entropy:  stats.Entropy,
			GradNorm: preP, ValueGradNorm: preV,
			ParamsFinite: a.policy.AllFinite() && a.value.AllFinite(),
		})
		if v != guard.Healthy {
			// Skip the apply: parameters and optimizer moments keep
			// their pre-update values, and paramsVersion stays put so
			// the rollout activation caches remain valid.
			stats.Skipped = true
			if a.Metrics.Enabled() {
				a.Metrics.Counter("rl/updates_skipped").Inc()
				a.Metrics.Emit("rl/update_skipped",
					metrics.F{K: "verdict", V: float64(v)},
					metrics.F{K: "steps", V: float64(n)})
			}
			return stats
		}
	}
	a.pOpt.Step(a.policy, a.pGrads)
	a.vOpt.Step(a.value, a.vGrads)
	a.paramsVersion++
	if a.Metrics.Enabled() {
		a.Metrics.Counter("rl/updates").Inc()
		a.Metrics.Counter("rl/steps").Add(int64(n))
		a.Metrics.Emit("rl/update",
			metrics.F{K: "policy_loss", V: stats.PolicyLoss},
			metrics.F{K: "value_loss", V: stats.ValueLoss},
			metrics.F{K: "entropy", V: stats.Entropy},
			metrics.F{K: "grad_norm", V: stats.GradNorm},
			metrics.F{K: "steps", V: float64(n)})
	}
	return stats
}

// run computes shard si's gradient contribution for transitions [start,end).
func (sh *discreteShard) run(a *DiscreteAgent, batch *Batch, adv, returns []float64, start, end int, n float64, cached bool) {
	sh.pGrads.Zero()
	sh.vGrads.Zero()
	sh.stats = UpdateStats{}
	d := a.cfg.ObsSize
	na := a.cfg.NumActions
	b := end - start

	// Policy: Loss_i = -adv*logπ(a|s) - entropyCoef*H(π(.|s)).
	var logits []float64
	if cached {
		logits = batch.pCache.Output()[start*na : end*na]
	} else {
		logits = a.policy.ForwardBatchCache(sh.ps, a.obsBuf[start*d:end*d], b)
	}
	for r := 0; r < b; r++ {
		i := start + r
		t := &batch.Transitions[i]
		nn.SoftmaxInto(sh.probs, logits[r*na:(r+1)*na])
		h := entropy(sh.probs)
		sh.stats.Entropy += h / n
		sh.stats.PolicyLoss += -adv[i] * math.Log(math.Max(sh.probs[t.Action], 1e-12)) / n

		// d(-adv*logπ)/dlogits = adv*(probs - onehot)
		// dH/dlogits = -probs*(logp + H)   =>  d(-cH)/dlogits = probs*(logp+H)*c
		grad := sh.gradBuf[r*na : (r+1)*na]
		for j := range grad {
			g := adv[i] * sh.probs[j]
			if j == t.Action {
				g -= adv[i]
			}
			logp := math.Log(math.Max(sh.probs[j], 1e-12))
			g += a.cfg.Entropy * sh.probs[j] * (logp + h)
			grad[j] = g / n
		}
	}
	if cached {
		a.policy.BackwardBatchRows(batch.pCache, start, end, sh.gradBuf[:b*na], sh.ps, sh.pGrads)
	} else {
		a.policy.BackwardBatchParams(sh.ps, sh.gradBuf[:b*na], sh.pGrads)
	}

	// Critic: 0.5*(V - R)^2.
	var v []float64
	if cached {
		v = batch.vCache.Output()[start:end]
	} else {
		v = a.value.ForwardBatchCache(sh.vs, a.obsBuf[start*d:end*d], b)
	}
	for r := 0; r < b; r++ {
		i := start + r
		diff := v[r] - returns[i]
		sh.stats.ValueLoss += 0.5 * diff * diff / n
		sh.vGradBuf[r] = a.cfg.ValueCoef * diff / n
	}
	if cached {
		a.value.BackwardBatchRows(batch.vCache, start, end, sh.vGradBuf[:b], sh.vs, sh.vGrads)
	} else {
		a.value.BackwardBatchParams(sh.vs, sh.vGradBuf[:b], sh.vGrads)
	}
}

// TrainIteration samples environments from makeEnv and performs one
// collect-and-update iteration of totalSteps transitions split over
// numEnvs environments (Algorithm 1's inner loop). Rollouts are collected
// on parallel workers, the A3C arrangement Pensieve uses; per-environment
// seeds are drawn from rng up front and batches merge in index order, so
// the result is deterministic regardless of scheduling.
func (a *DiscreteAgent) TrainIteration(makeEnv func(rng *rand.Rand) DiscreteEnv, numEnvs, totalSteps int, rng *rand.Rand) (meanEpReward float64, stats UpdateStats) {
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
	a.ensureCollectPool(numEnvs, perEnv)
	batches := make([]*Batch, numEnvs)
	wrapFaults := a.Faults.SiteEnabled(faults.EnvStepPanic) || a.Faults.SiteEnabled(faults.TraceCorrupt)
	contain := a.Guard.Enabled()
	rt := a.Metrics.StartTimer("rl/rollout_seconds")
	rsp := a.Recorder.Start("rl/rollout")
	par.For(numEnvs, func(i int) {
		envRng := rand.New(rand.NewSource(seeds[i]))
		env := makeEnv(envRng)
		if wrapFaults {
			env = wrapFaultyDiscrete(env, a.Faults, seeds[i])
		}
		if contain {
			// Containment is opt-in via the guard: with no guard a
			// rollout panic is a genuine bug and must crash loudly.
			// A contained env leaves a nil batch; the survivors still
			// train, and the guard's quarantine policy sees the fault.
			defer func() {
				if r := recover(); r != nil {
					batches[i] = nil
					a.Guard.RecordRolloutFault(r)
					a.Metrics.Counter("guard/contained_rollouts").Inc()
				}
			}()
		}
		batches[i] = a.collectWith(a.collectPool[i], env, perEnv, envRng)
	})
	rt.Stop()
	if a.Recorder.Enabled() {
		rsp.EndArgs(
			obs.Arg{K: "envs", V: float64(numEnvs)},
			obs.Arg{K: "steps_per_env", V: float64(perEnv)})
	}
	a.Guard.ObserveRollouts()
	return a.mergeAndUpdate(batches)
}

// mergeCaches concatenates the per-env rollout activation caches — in env
// index order, preserving determinism — into the agent-owned merged caches
// so Update's cached path covers the merged batch. If any env batch lacks a
// current cache the merged batch simply carries none and Update recomputes.
func (a *DiscreteAgent) mergeCaches(merged *Batch, batches []*Batch) {
	total := 0
	for _, b := range batches {
		if b == nil || b.cacheOwner != a || b.cacheVersion != a.paramsVersion ||
			b.pCache == nil || b.vCache == nil || b.pCache.Rows() != len(b.Transitions) {
			return
		}
		total += len(b.Transitions)
	}
	if a.trainPCache == nil {
		a.trainPCache = a.policy.NewBatchCache(total)
		a.trainVCache = a.value.NewBatchCache(total)
	}
	a.trainPCache.Reset()
	a.trainVCache.Reset()
	for _, b := range batches {
		a.trainPCache.AppendCache(b.pCache)
		a.trainVCache.AppendCache(b.vCache)
	}
	merged.pCache, merged.vCache = a.trainPCache, a.trainVCache
	merged.cacheOwner = a
	merged.cacheVersion = a.paramsVersion
}

// Clone returns an independent copy of the agent (networks and optimizer
// state reset; cloning is used to snapshot models, which then continue
// training with fresh optimizer moments, matching checkpoint-restore
// semantics).
func (a *DiscreteAgent) Clone() *DiscreteAgent {
	c := &DiscreteAgent{
		cfg:    a.cfg,
		policy: a.policy.Clone(),
		value:  a.value.Clone(),
		pOpt:   nn.NewAdam(a.cfg.LR),
		vOpt:   nn.NewAdam(a.cfg.LR),
	}
	c.pGrads = c.policy.NewGrads()
	c.vGrads = c.value.NewGrads()
	return c
}
