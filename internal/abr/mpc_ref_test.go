package abr

import (
	"math"

	"github.com/genet-go/genet/internal/stats"
)

// This file keeps the recursive MPC and Oboe enumerations that the shared
// planner replaced, unchanged apart from their identifiers, as the oracle
// for the differential tests in planner_test.go: the planner must return
// the same level as these on every observation.

// refMPC is the recursive RobustMPC (Yin et al., SIGCOMM 2015): model-predictive
// control over a short horizon using a harmonic-mean throughput prediction
// discounted by the maximum recent prediction error.
type refMPC struct {
	// Horizon is the look-ahead depth in chunks (default 5).
	Horizon int
	// Robust disables the error discount when false (plain MPC).
	Robust bool

	lastPrediction float64
	errorHist      []float64
}

// newRefRobustMPC returns RobustMPC with the paper's default horizon.
func newRefRobustMPC() *refMPC { return &refMPC{Horizon: 5, Robust: true} }

// Name implements Policy.
func (m *refMPC) Name() string {
	if m.Robust {
		return "RobustMPC"
	}
	return "MPC"
}

// Reset implements Policy.
func (m *refMPC) Reset() {
	m.lastPrediction = 0
	m.errorHist = nil
}

// Select implements Policy.
func (m *refMPC) Select(obs *Observation) int {
	horizon := m.Horizon
	if horizon <= 0 {
		horizon = 5
	}
	if r := obs.RemainingChunks; r < horizon {
		horizon = r
	}
	if horizon == 0 {
		return 0
	}

	// Track prediction error against the realized throughput.
	if m.lastPrediction > 0 {
		actual := obs.ThroughputHist[len(obs.ThroughputHist)-1]
		if actual > 0 {
			e := math.Abs(m.lastPrediction-actual) / actual
			m.errorHist = append(m.errorHist, e)
			if len(m.errorHist) > 5 {
				m.errorHist = m.errorHist[1:]
			}
		}
	}
	pred := refPredictThroughput(obs.ThroughputHist)
	m.lastPrediction = pred
	if m.Robust {
		maxErr := 0.0
		for _, e := range m.errorHist {
			maxErr = math.Max(maxErr, e)
		}
		pred /= 1 + maxErr
	}
	if pred <= 0 {
		pred = 0.1
	}

	best, bestScore := 0, math.Inf(-1)
	n := obs.Video.NumLevels()
	seq := make([]int, horizon)
	var rec func(depth int, buffer float64, lastLevel int, score float64)
	rec = func(depth int, buffer float64, lastLevel int, score float64) {
		if depth == horizon {
			if score > bestScore {
				bestScore = score
				best = seq[0]
			}
			return
		}
		for l := 0; l < n; l++ {
			size := obs.Video.BitrateMbps(l) * obs.Video.ChunkLength // Mbit nominal
			if depth == 0 && obs.NextSizes != nil {
				size = obs.NextSizes[l] * 8 / 1e6
			}
			dl := size / pred
			rebuf := math.Max(0, dl-buffer)
			nb := math.Max(0, buffer-dl) + obs.Video.ChunkLength
			if nb > obs.MaxBuffer {
				nb = obs.MaxBuffer
			}
			change := 0.0
			if lastLevel >= 0 {
				change = math.Abs(obs.Video.BitrateMbps(l) - obs.Video.BitrateMbps(lastLevel))
			}
			r := RewardBitrateCoef*obs.Video.BitrateMbps(l) + RewardRebufCoef*rebuf + RewardChangeCoef*change
			seq[depth] = l
			rec(depth+1, nb, l, score+r)
		}
	}
	rec(0, obs.Buffer, obs.LastLevel, 0)
	return best
}

// refOboe is the recursive Oboe (Akhtar et al., SIGCOMM 2018), which the paper's
// footnote 3 singles out as "a very competitive baseline": it auto-tunes
// RobustMPC's conservatism to the current network state. The real system
// precomputes the best MPC discount per (bandwidth mean, variance) bucket
// offline; this implementation uses the closed-form proxy of discounting
// the throughput prediction by its coefficient of variation — volatile
// links get conservative predictions, stable links aggressive ones — and
// otherwise reuses the MPC planner.
type refOboe struct {
	// Horizon is the look-ahead depth in chunks (default 5).
	Horizon int
	// Sensitivity scales how strongly variance discounts the prediction
	// (default 1).
	Sensitivity float64

	mpc refMPC
}

// newRefOboe returns a refOboe baseline with defaults.
func newRefOboe() *refOboe { return &refOboe{Horizon: 5, Sensitivity: 1} }

// Name implements Policy.
func (*refOboe) Name() string { return "Oboe" }

// Reset implements Policy.
func (o *refOboe) Reset() { o.mpc.Reset() }

// Select implements Policy.
func (o *refOboe) Select(obs *Observation) int {
	horizon := o.Horizon
	if horizon <= 0 {
		horizon = 5
	}
	sens := o.Sensitivity
	if sens <= 0 {
		sens = 1
	}

	// Estimate bandwidth state from the non-zero throughput history.
	var tail []float64
	for _, v := range obs.ThroughputHist {
		if v > 0 {
			tail = append(tail, v)
		}
	}
	if len(tail) < 2 {
		// Cold start: fall back to plain RobustMPC behaviour.
		o.mpc.Horizon = horizon
		o.mpc.Robust = true
		return o.mpc.Select(obs)
	}
	mean := stats.Mean(tail)
	cv := 0.0
	if mean > 0 {
		cv = stats.Std(tail) / mean
	}
	pred := mean / (1 + sens*cv)
	if pred <= 0 {
		pred = 0.1
	}

	// Plan with the tuned prediction using the same enumeration as MPC.
	best, bestScore := 0, math.Inf(-1)
	n := obs.Video.NumLevels()
	seq := make([]int, min(horizon, max(1, obs.RemainingChunks)))
	if len(seq) == 0 {
		return 0
	}
	var rec func(depth int, buffer float64, lastLevel int, score float64)
	rec = func(depth int, buffer float64, lastLevel int, score float64) {
		if depth == len(seq) {
			if score > bestScore {
				bestScore = score
				best = seq[0]
			}
			return
		}
		for l := 0; l < n; l++ {
			size := obs.Video.BitrateMbps(l) * obs.Video.ChunkLength
			if depth == 0 && obs.NextSizes != nil {
				size = obs.NextSizes[l] * 8 / 1e6
			}
			dl := size / pred
			rebuf := math.Max(0, dl-buffer)
			nb := math.Max(0, buffer-dl) + obs.Video.ChunkLength
			if nb > obs.MaxBuffer {
				nb = obs.MaxBuffer
			}
			change := 0.0
			if lastLevel >= 0 {
				change = math.Abs(obs.Video.BitrateMbps(l) - obs.Video.BitrateMbps(lastLevel))
			}
			r := RewardBitrateCoef*obs.Video.BitrateMbps(l) + RewardRebufCoef*rebuf + RewardChangeCoef*change
			seq[depth] = l
			rec(depth+1, nb, l, score+r)
		}
	}
	rec(0, obs.Buffer, obs.LastLevel, 0)
	return best
}

// refPredictThroughput is the harmonic-mean predictor over the non-zero tail of
// the throughput history, shared by the rate-based and MPC baselines.
func refPredictThroughput(hist []float64) float64 {
	var tail []float64
	for _, h := range hist {
		if h > 0 {
			tail = append(tail, h)
		}
	}
	if len(tail) == 0 {
		return 0.3 // conservative cold-start guess (lowest rung, Mbps)
	}
	if len(tail) > 5 {
		tail = tail[len(tail)-5:]
	}
	return stats.HarmonicMean(tail)
}
