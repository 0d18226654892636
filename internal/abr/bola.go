package abr

import (
	"math"
)

// BOLA implements BOLA-BASIC (Spiteri, Urgaonkar, Sitaraman, INFOCOM 2016),
// the Lyapunov-optimization buffer-based algorithm that ships in dash.js.
// Each chunk it maximizes (V·utility_l + V·gamma − buffer) / size_l over
// ladder rungs, where utility is the log of relative chunk size. Like BBA
// it ignores throughput estimates entirely, but its utility framework picks
// rungs more smoothly.
type BOLA struct {
	// GammaP is the playback-smoothness weight (default 5 seconds).
	GammaP float64

	v float64 // Lyapunov control parameter, derived per session
}

// NewBOLA returns a BOLA policy with the dash.js default gamma.
func NewBOLA() *BOLA { return &BOLA{GammaP: 5} }

// Name implements Policy.
func (*BOLA) Name() string { return "BOLA" }

// Reset implements Policy.
func (b *BOLA) Reset() { b.v = 0 }

// Select implements Policy.
func (b *BOLA) Select(obs *Observation) int {
	n := obs.Video.NumLevels()
	gammaP := b.GammaP
	if gammaP <= 0 {
		gammaP = 5
	}
	// Utilities: u_l = ln(S_l / S_min).
	utility := func(l int) float64 {
		return math.Log(obs.Video.BitratesKbps[l] / obs.Video.BitratesKbps[0])
	}
	// Derive V so the decision thresholds span the buffer: at buffer =
	// reservoir pick the bottom rung, at buffer near capacity the top.
	// V = (bufMax - chunkLen) / (u_max + gamma*chunkLen/chunkLen ...) —
	// the BOLA-BASIC closed form from the paper, adapted to seconds.
	chunk := obs.Video.ChunkLength
	bufMax := math.Max(obs.MaxBuffer, 3*chunk)
	gamma := gammaP / chunk
	b.v = (bufMax/chunk - 1) / (utility(n-1) + gamma*chunk)
	if b.v <= 0 {
		b.v = 1
	}

	bufChunks := obs.Buffer / chunk
	best, bestScore := 0, math.Inf(-1)
	for l := 0; l < n; l++ {
		sizeRel := obs.Video.BitratesKbps[l] / obs.Video.BitratesKbps[0]
		score := (b.v*(utility(l)+gamma*chunk) - bufChunks) / sizeRel
		if score > bestScore {
			bestScore = score
			best = l
		}
	}
	return best
}
