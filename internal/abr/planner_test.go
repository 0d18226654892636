package abr

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"github.com/genet-go/genet/internal/env"
)

// The shared planner replaced two recursive enumerations (kept in
// mpc_ref_test.go). Its contract is bit-identical decisions: every test
// here compares it against that oracle with ==, never with a tolerance.

// plannerMaxLeaves caps the oracle's tree size per observation so 100k
// observations stay affordable; 6^5 (RobustMPC's default) fits.
const plannerMaxLeaves = 8192

// plannerCoverage counts how often the generator reached each edge case, so
// a generator change cannot silently stop exercising one.
type plannerCoverage struct {
	obs, noLast, nilSizes, equalSizes, emptyBuf, fullBuf, clamped, coldStart int
}

// plannerSession derives one differential scenario from seed: a 2-8 rung
// ladder, a 1-8 chunk horizon (shrunk until the tree has at most
// plannerMaxLeaves leaves), an Oboe sensitivity, and a generator of
// observations whose throughput history evolves across calls, so MPC's
// error window and Oboe's cold start are driven as in a real session.
type plannerSession struct {
	rng     *rand.Rand
	video   *Video
	horizon int
	sens    float64
	sizes   []float64 // backing array of obs.NextSizes
	obs     Observation
}

func newPlannerSession(seed int64) *plannerSession {
	rng := rand.New(rand.NewSource(seed))
	n := 2 + rng.Intn(7)
	kbps := make([]float64, n)
	br := 100 + 400*rng.Float64()
	for i := range kbps {
		kbps[i] = br
		br += 50 + 2500*rng.Float64()
	}
	chunkLen := []float64{1, 2, 4, 0.5 + 8*rng.Float64()}[rng.Intn(4)]
	horizon := 1 + rng.Intn(8)
	for math.Pow(float64(n), float64(horizon)) > plannerMaxLeaves {
		horizon--
	}
	sens := []float64{1, 0.2 + 3*rng.Float64(), 1e308}[rng.Intn(3)]
	video := &Video{BitratesKbps: kbps, ChunkLength: chunkLen}
	return &plannerSession{
		rng:     rng,
		video:   video,
		horizon: horizon,
		sens:    sens,
		sizes:   make([]float64, n),
		obs: Observation{
			MaxBuffer:      2 + 60*rng.Float64(),
			ThroughputHist: make([]float64, HistLen),
			DownloadHist:   make([]float64, HistLen),
			Video:          video,
		},
	}
}

// next advances the session by one chunk and returns the observation. It
// reports reset=true when the history was wiped, in which case the caller
// resets both policies, as RunEpisode does at a session start.
func (ps *plannerSession) next(cov *plannerCoverage) (obs *Observation, reset bool) {
	rng, o := ps.rng, &ps.obs
	n := ps.video.NumLevels()
	if rng.Intn(40) == 0 {
		clear(o.ThroughputHist)
		reset = true
	}
	var tput float64
	switch k := rng.Intn(20); {
	case k == 0:
		tput = 0 // a zero keeps the history's non-zero tail short
	case k == 1:
		tput = 5e-324 // the harmonic mean collapses to 0: the 0.1 clamp
	default:
		tput = math.Exp(rng.Float64()*6 - 2.5) // ~0.08 .. 33 Mbps
	}
	pushHist(o.ThroughputHist, tput)

	switch k := rng.Intn(8); {
	case k == 0:
		o.Buffer = 0
		cov.emptyBuf++
	case k == 1:
		o.Buffer = o.MaxBuffer
		cov.fullBuf++
	default:
		o.Buffer = o.MaxBuffer * rng.Float64()
	}
	o.LastLevel = rng.Intn(n+2) - 1
	if o.LastLevel == n {
		o.LastLevel = -1
	}
	if o.LastLevel < 0 {
		cov.noLast++
	}
	switch k := rng.Intn(6); {
	case k == 0:
		o.NextSizes = nil
		cov.nilSizes++
	case k == 1:
		o.NextSizes = ps.sizes
		size := 1e5 + 1e6*rng.Float64()
		for l := range o.NextSizes {
			o.NextSizes[l] = size // equal sizes: depth-0 download ties
		}
		cov.equalSizes++
	default:
		o.NextSizes = ps.sizes
		for l := range o.NextSizes {
			o.NextSizes[l] = ps.video.BitratesKbps[l] * 1000 / 8 * ps.video.ChunkLength * (0.9 + 0.2*rng.Float64())
		}
	}
	o.RemainingChunks = rng.Intn(2 * (ps.horizon + 1))

	// MPC's prediction is 0, hence clamped, while the denormal is among
	// the five newest non-zero samples.
	nonZero, clamped := 0, false
	for i := len(o.ThroughputHist) - 1; i >= 0; i-- {
		if h := o.ThroughputHist[i]; h > 0 {
			clamped = clamped || nonZero < 5 && h < 1e-300
			nonZero++
		}
	}
	if clamped {
		cov.clamped++
	}
	if nonZero < 2 {
		cov.coldStart++
	}
	cov.obs++
	return o, reset
}

// plannerTwins are the three planner-backed policies paired with their
// oracles.
type plannerTwins struct {
	got, want [3]Policy
}

func newPlannerTwins(horizon int, sens float64) *plannerTwins {
	return &plannerTwins{
		got: [3]Policy{
			&MPC{Horizon: horizon, Robust: true},
			&MPC{Horizon: horizon},
			&Oboe{Horizon: horizon, Sensitivity: sens},
		},
		want: [3]Policy{
			&refMPC{Horizon: horizon, Robust: true},
			&refMPC{Horizon: horizon},
			&refOboe{Horizon: horizon, Sensitivity: sens},
		},
	}
}

// runPlannerSession drives steps observations of the seeded session through
// every twin pair and fails on the first differing decision.
func runPlannerSession(t testing.TB, seed int64, steps int, cov *plannerCoverage) {
	ps := newPlannerSession(seed)
	tw := newPlannerTwins(ps.horizon, ps.sens)
	for i := range tw.got {
		tw.got[i].Reset()
		tw.want[i].Reset()
	}
	for step := 0; step < steps; step++ {
		obs, reset := ps.next(cov)
		for i := range tw.got {
			if reset {
				tw.got[i].Reset()
				tw.want[i].Reset()
			}
			got, want := tw.got[i].Select(obs), tw.want[i].Select(obs)
			if got != want {
				t.Fatalf("seed %d step %d: %s(horizon %d, %d rungs) chose %d, oracle %d; obs %+v",
					seed, step, tw.got[i].Name(), ps.horizon, ps.video.NumLevels(), got, want, *obs)
			}
		}
	}
}

func TestMPCPlannerMatchesReference(t *testing.T) {
	const sessions, steps = 5000, 20 // 100k observations per policy
	var cov plannerCoverage
	for s := 0; s < sessions; s++ {
		runPlannerSession(t, int64(s), steps, &cov)
	}
	if cov.obs < 100_000 {
		t.Fatalf("only %d observations", cov.obs)
	}
	for name, c := range map[string]int{
		"LastLevel=-1": cov.noLast, "nil NextSizes": cov.nilSizes, "equal NextSizes": cov.equalSizes,
		"empty buffer": cov.emptyBuf, "full buffer": cov.fullBuf, "0.1 clamp": cov.clamped,
		"Oboe cold start": cov.coldStart,
	} {
		if c == 0 {
			t.Errorf("generator never produced %s", name)
		}
	}
}

// FuzzMPCPlanner explores session seeds beyond the fixed range above. The
// committed corpus in testdata/fuzz/FuzzMPCPlanner pins the ladder and
// horizon extremes (2 rungs x 8 chunks, 8 rungs x 4, the default 6 x 5,
// with and without an overflowing Oboe sensitivity) and replays on every
// go test.
func FuzzMPCPlanner(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		runPlannerSession(t, seed, 40, &plannerCoverage{})
	})
}

// plannerInstances returns n seeded instances sampled from ABRSpace(RL3).
func plannerInstances(t *testing.T, n int) []*Instance {
	t.Helper()
	space := env.ABRSpace(env.RL3)
	out := make([]*Instance, n)
	for i := range out {
		rng := rand.New(rand.NewSource(int64(500 + i)))
		inst, err := NewInstance(space.Sample(rng), nil, rng)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = inst
	}
	return out
}

func TestMPCPlannerEpisodesMatchReference(t *testing.T) {
	for i, inst := range plannerInstances(t, 50) {
		tw := newPlannerTwins(5, 1)
		for k := range tw.got {
			got, want := inst.Evaluate(tw.got[k]), inst.Evaluate(tw.want[k])
			if got != want {
				t.Fatalf("instance %d: %s metrics %+v, oracle %+v", i, tw.got[k].Name(), got, want)
			}
		}
	}
}

// Baselines run under par.For in the harnesses' Eval, one policy value per
// environment: the planner's scratch lives on that value, so concurrent
// evaluations must neither race nor change any result.
func TestBaselinesConcurrentMatchSequential(t *testing.T) {
	insts := plannerInstances(t, 12)
	policies := func() []Policy { return []Policy{NewRobustMPC(), NewOboe(), NewBOLA(), RateBased{}} }
	want := make([][]Metrics, len(insts))
	for i, inst := range insts {
		for _, p := range policies() {
			want[i] = append(want[i], inst.Evaluate(p))
		}
	}
	const workers = 4
	got := make([][]Metrics, len(insts))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ps := policies() // reused across this worker's instances
			for i := w; i < len(insts); i += workers {
				for _, p := range ps {
					got[i] = append(got[i], insts[i].Evaluate(p))
				}
			}
		}(w)
	}
	wg.Wait()
	for i := range insts {
		for k := range want[i] {
			if got[i][k] != want[i][k] {
				t.Fatalf("instance %d policy %d: concurrent %+v, sequential %+v", i, k, got[i][k], want[i][k])
			}
		}
	}
}

func TestPlannerSelectZeroAllocs(t *testing.T) {
	warm := obsWith(t, 20)
	for i := range warm.ThroughputHist {
		warm.ThroughputHist[i] = 1 + float64(i%3)
	}
	cold := obsWith(t, 20) // all-zero history: Oboe's cold-start path
	for name, c := range map[string]struct {
		p   Policy
		obs *Observation
	}{
		"RobustMPC": {NewRobustMPC(), warm},
		"MPC":       {&MPC{Horizon: 5}, warm},
		"Oboe":      {NewOboe(), warm},
		"Oboe cold": {NewOboe(), cold},
	} {
		c.p.Reset()
		c.p.Select(c.obs) // warm-up sizes the planner's scratch
		if n := testing.AllocsPerRun(100, func() { c.p.Select(c.obs) }); n != 0 {
			t.Errorf("%s: %v allocs per Select, want 0", name, n)
		}
	}
}
