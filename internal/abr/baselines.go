package abr

import (
	"math"
	"slices"
	"sort"
)

// BBA is the buffer-based ABR algorithm of Huang et al. (SIGCOMM 2014): the
// bitrate is a piecewise-linear function of the playback buffer between a
// reservoir and a cushion.
type BBA struct {
	// ReservoirSec is the buffer level below which BBA plays the lowest
	// rung. Defaults to 5 s when zero.
	ReservoirSec float64
	// CushionFrac is the fraction of the buffer capacity at which BBA
	// reaches the top rung. Defaults to 0.9 when zero.
	CushionFrac float64
}

// Name implements Policy.
func (*BBA) Name() string { return "BBA" }

// Reset implements Policy.
func (*BBA) Reset() {}

// Select implements Policy.
func (b *BBA) Select(obs *Observation) int {
	reservoir := b.ReservoirSec
	if reservoir <= 0 {
		reservoir = 5
	}
	cushionFrac := b.CushionFrac
	if cushionFrac <= 0 {
		cushionFrac = 0.9
	}
	upper := cushionFrac * obs.MaxBuffer
	if upper <= reservoir {
		upper = reservoir + 1
	}
	n := obs.Video.NumLevels()
	switch {
	case obs.Buffer <= reservoir:
		return 0
	case obs.Buffer >= upper:
		return n - 1
	default:
		frac := (obs.Buffer - reservoir) / (upper - reservoir)
		level := int(frac * float64(n-1))
		if level >= n {
			level = n - 1
		}
		return level
	}
}

// RateBased picks the highest rung whose bitrate is below the harmonic-mean
// throughput prediction.
type RateBased struct{}

// Name implements Policy.
func (RateBased) Name() string { return "RateBased" }

// Reset implements Policy.
func (RateBased) Reset() {}

// Select implements Policy.
func (RateBased) Select(obs *Observation) int {
	pred := predictThroughput(obs.ThroughputHist)
	level := 0
	for l := 0; l < obs.Video.NumLevels(); l++ {
		if obs.Video.BitrateMbps(l) <= pred {
			level = l
		}
	}
	return level
}

// MPC implements RobustMPC (Yin et al., SIGCOMM 2015): model-predictive
// control over a short horizon using a harmonic-mean throughput prediction
// discounted by the maximum recent prediction error.
type MPC struct {
	// Horizon is the look-ahead depth in chunks (default 5).
	Horizon int
	// Robust disables the error discount when false (plain MPC).
	Robust bool

	lastPrediction float64
	errorHist      [5]float64 // recent relative errors, oldest first
	errorN         int
	levels         []struct{ rbr, dl float64 } // plan's scratch: bitrate reward, nominal download time
	chg            []float64                   // change penalty at (lastLevel+1)*n + level
	state          [][2]float64                // per depth from 1: buffer and partial score
	lvl            []int                       // per depth from 1: next level to try; lvl[0] = LastLevel+1
}

// NewRobustMPC returns RobustMPC with the paper's default horizon.
func NewRobustMPC() *MPC { return &MPC{Horizon: 5, Robust: true} }

// Name implements Policy.
func (m *MPC) Name() string {
	if m.Robust {
		return "RobustMPC"
	}
	return "MPC"
}

// Reset implements Policy.
func (m *MPC) Reset() {
	m.lastPrediction = 0
	m.errorN = 0
}

// Select implements Policy.
func (m *MPC) Select(obs *Observation) int {
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
			if m.errorN == len(m.errorHist) {
				m.errorN = copy(m.errorHist[:], m.errorHist[1:])
			}
			m.errorHist[m.errorN] = math.Abs(m.lastPrediction-actual) / actual
			m.errorN++
		}
	}
	pred := predictThroughput(obs.ThroughputHist)
	m.lastPrediction = pred
	if m.Robust {
		maxErr := 0.0
		for _, e := range m.errorHist[:m.errorN] {
			maxErr = math.Max(maxErr, e)
		}
		pred /= 1 + maxErr
	}
	if pred <= 0 {
		pred = 0.1
	}
	return m.plan(obs, horizon, pred)
}

// plan is the look-ahead MPC and Oboe share: the first level of the best plan
// over horizon >= 1 chunks under throughput prediction pred, exactly as a full
// enumeration picks it (DESIGN.md, "RobustMPC planner").
func (m *MPC) plan(obs *Observation, horizon int, pred float64) int {
	v, n := obs.Video, obs.Video.NumLevels()
	m.levels = slices.Grow(m.levels[:0], n)[:n]
	m.chg = slices.Grow(m.chg[:0], (n+1)*n)[:(n+1)*n]
	m.state = slices.Grow(m.state[:0], horizon+1)[:horizon+1]
	m.lvl = slices.Grow(m.lvl[:0], horizon+1)[:horizon+1]
	maxR := math.Inf(-1)
	for l := range m.levels {
		br := v.BitrateMbps(l)
		m.levels[l].rbr, m.levels[l].dl = RewardBitrateCoef*br, br*v.ChunkLength/pred
		maxR = max(maxR, m.levels[l].rbr) // a NaN here only disables pruning
		m.chg[l] = 0                      // row 0: no last level
		for last := 0; last < n; last++ {
			m.chg[(last+1)*n+l] = RewardChangeCoef * math.Abs(br-v.BitrateMbps(last))
		}
	}

	best, bestScore := 0, math.Inf(-1)
	m.lvl[0], m.lvl[1], m.state[1] = max(obs.LastLevel+1, 0), 0, [2]float64{obs.Buffer, 0}
	for d := 1; d > 0; {
		l := m.lvl[d]
		if l == n {
			d--
			continue
		}
		// lvl is bumped on entry, so a parent's lvl is its level + 1.
		m.lvl[d]++
		dl := m.levels[l].dl
		if d == 1 && obs.NextSizes != nil {
			dl = obs.NextSizes[l] * 8 / 1e6 / pred
		}
		buf, score := m.state[d][0], m.state[d][1]
		rebuf := dl - buf
		if rebuf <= 0 {
			rebuf = 0
		}
		s := score + (m.levels[l].rbr + RewardRebufCoef*rebuf + m.chg[m.lvl[d-1]*n+l])
		if d == horizon {
			if s > bestScore {
				best, bestScore = m.lvl[1]-1, s
			}
			continue
		}
		bound := s
		for k := d; k < horizon; k++ {
			bound += maxR
		}
		if bound <= bestScore {
			continue
		}
		nb := buf - dl
		if nb <= 0 {
			nb = 0
		}
		if nb += v.ChunkLength; nb > obs.MaxBuffer {
			nb = obs.MaxBuffer
		}
		d++
		m.state[d], m.lvl[d] = [2]float64{nb, s}, 0
	}
	return best
}

// Naive is the deliberately unreasonable baseline from §5.4 ("choosing the
// highest bitrate when rebuffer[ing]"): it requests the top rung whenever
// the previous chunk stalled and the bottom rung otherwise.
type Naive struct{}

// Name implements Policy.
func (Naive) Name() string { return "NaiveABR" }

// Reset implements Policy.
func (Naive) Reset() {}

// Select implements Policy.
func (Naive) Select(obs *Observation) int {
	if obs.LastRebuffer > 0 {
		return obs.Video.NumLevels() - 1
	}
	return 0
}

// OmniscientMPC is the "optimal" reference of Strawman 3 (§3): MPC driven by
// the ground-truth future bandwidth rather than a prediction. It plans with
// a beam search over the next Horizon chunks using exact download times from
// the live session's trace, so it upper-bounds prediction-based MPC at equal
// depth. It must only be used with the sim passed at construction.
type OmniscientMPC struct {
	sim     *Sim
	horizon int
	beam    int
}

// NewOmniscientMPC builds the oracle for a specific session. Horizon
// defaults to 6 and beam width to 12 when non-positive.
func NewOmniscientMPC(sim *Sim, horizon int) *OmniscientMPC {
	if horizon <= 0 {
		horizon = 6
	}
	return &OmniscientMPC{sim: sim, horizon: horizon, beam: 12}
}

// Name implements Policy.
func (*OmniscientMPC) Name() string { return "Omniscient" }

// Reset implements Policy.
func (*OmniscientMPC) Reset() {}

// beamState is one partial plan during the oracle's beam search.
type beamState struct {
	clock     float64
	buffer    float64
	lastLevel int
	score     float64
	first     int // level chosen at depth 0
}

// Select implements Policy.
func (o *OmniscientMPC) Select(obs *Observation) int {
	horizon := o.horizon
	if r := obs.RemainingChunks; r < horizon {
		horizon = r
	}
	if horizon == 0 {
		return 0
	}
	n := obs.Video.NumLevels()
	frontier := []beamState{{
		clock: o.sim.Clock(), buffer: obs.Buffer, lastLevel: obs.LastLevel, first: -1,
	}}
	for depth := 0; depth < horizon; depth++ {
		chunk := o.sim.Chunk() + depth
		next := make([]beamState, 0, len(frontier)*n)
		for _, st := range frontier {
			for l := 0; l < n; l++ {
				dl := o.sim.FutureDownloadTime(l, chunk, st.clock)
				rebuf := math.Max(0, dl-st.buffer)
				nb := math.Max(0, st.buffer-dl) + obs.Video.ChunkLength
				wait := 0.0
				if nb > obs.MaxBuffer {
					wait = nb - obs.MaxBuffer
					nb = obs.MaxBuffer
				}
				change := 0.0
				if st.lastLevel >= 0 {
					change = math.Abs(obs.Video.BitrateMbps(l) - obs.Video.BitrateMbps(st.lastLevel))
				}
				r := RewardBitrateCoef*obs.Video.BitrateMbps(l) + RewardRebufCoef*rebuf + RewardChangeCoef*change
				first := st.first
				if first < 0 {
					first = l
				}
				next = append(next, beamState{
					clock: st.clock + dl + wait, buffer: nb,
					lastLevel: l, score: st.score + r, first: first,
				})
			}
		}
		sort.Slice(next, func(i, j int) bool { return next[i].score > next[j].score })
		if len(next) > o.beam {
			next = next[:o.beam]
		}
		frontier = next
	}
	// Terminal value: buffered seconds hedge against stalls beyond the
	// horizon. Without this the planner runs the buffer to zero at the
	// horizon edge and loses to conservative MPC on long sessions.
	const terminalBufferValue = 0.3 // reward per buffered second at horizon end
	best := frontier[0]
	bestScore := math.Inf(-1)
	for _, st := range frontier {
		s := st.score + terminalBufferValue*st.buffer
		if s > bestScore {
			bestScore = s
			best = st
		}
	}
	if best.first < 0 {
		return 0
	}
	return best.first
}
