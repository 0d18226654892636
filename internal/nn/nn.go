// Package nn is a small, dependency-free neural-network library sufficient
// for the policy-gradient learners in this repository: fully connected
// multi-layer perceptrons with tanh/ReLU hidden activations, manual
// backpropagation, SGD and Adam optimizers, and gob serialization.
//
// It deliberately trades generality for clarity and determinism: all
// computation is single-threaded per network, uses float64 throughout, and
// draws initial weights from an explicitly provided random source, so a
// fixed seed yields bit-identical training runs.
package nn

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
)

// Activation selects the nonlinearity applied after a hidden layer.
type Activation int

// Supported activations.
const (
	// Linear applies no nonlinearity (used on output layers).
	Linear Activation = iota
	// Tanh is the hyperbolic tangent.
	Tanh
	// ReLU is max(0, x).
	ReLU
)

// String implements fmt.Stringer.
func (a Activation) String() string {
	switch a {
	case Linear:
		return "linear"
	case Tanh:
		return "tanh"
	case ReLU:
		return "relu"
	}
	return "unknown"
}

// derivFromOutput returns dActivation/dx given the activation *output* y
// (both tanh and ReLU admit this form, which avoids caching pre-activations).
func (a Activation) derivFromOutput(y float64) float64 {
	switch a {
	case Tanh:
		return 1 - y*y
	case ReLU:
		if y > 0 {
			return 1
		}
		return 0
	default:
		return 1
	}
}

// MLP is a fully connected network: sizes[0] inputs, len(sizes)-2 hidden
// layers with the configured hidden activation, and sizes[len-1] linear
// outputs.
type MLP struct {
	sizes  []int
	hidden Activation
	// weights[l] is a flat row-major (out x in) matrix for layer l;
	// biases[l] has length out.
	weights [][]float64
	biases  [][]float64
}

// NewMLP builds an MLP with Xavier/Glorot-uniform initial weights drawn from
// rng. sizes must contain at least two entries (input and output widths).
func NewMLP(rng *rand.Rand, hidden Activation, sizes ...int) (*MLP, error) {
	if len(sizes) < 2 {
		return nil, errors.New("nn: MLP needs at least input and output sizes")
	}
	for _, s := range sizes {
		if s <= 0 {
			return nil, fmt.Errorf("nn: non-positive layer size %d", s)
		}
	}
	m := &MLP{sizes: append([]int(nil), sizes...), hidden: hidden}
	for l := 0; l < len(sizes)-1; l++ {
		in, out := sizes[l], sizes[l+1]
		limit := math.Sqrt(6.0 / float64(in+out))
		w := make([]float64, in*out)
		for i := range w {
			w[i] = (rng.Float64()*2 - 1) * limit
		}
		m.weights = append(m.weights, w)
		m.biases = append(m.biases, make([]float64, out))
	}
	return m, nil
}

// MustMLP is NewMLP that panics on error.
func MustMLP(rng *rand.Rand, hidden Activation, sizes ...int) *MLP {
	m, err := NewMLP(rng, hidden, sizes...)
	if err != nil {
		panic(err)
	}
	return m
}

// InSize returns the input width.
func (m *MLP) InSize() int { return m.sizes[0] }

// OutSize returns the output width.
func (m *MLP) OutSize() int { return m.sizes[len(m.sizes)-1] }

// NumLayers returns the number of weight layers.
func (m *MLP) NumLayers() int { return len(m.weights) }

// NumParams returns the total number of scalar parameters.
func (m *MLP) NumParams() int {
	n := 0
	for l := range m.weights {
		n += len(m.weights[l]) + len(m.biases[l])
	}
	return n
}

// Cache stores per-layer activations from a forward pass for use by
// Backward. acts[0] is the input; acts[l+1] the output of layer l after
// its activation.
type Cache struct {
	acts [][]float64
}

// Forward computes the network output for input x (len must equal InSize).
func (m *MLP) Forward(x []float64) []float64 {
	out, _ := m.forward(x, false)
	return out
}

// ForwardCache computes the output and retains intermediate activations so
// Backward can compute gradients.
func (m *MLP) ForwardCache(x []float64) ([]float64, *Cache) {
	return m.forward(x, true)
}

// forward runs the batched layer kernels at batch 1, so a single-sample
// forward is bit-identical to each row of ForwardBatch. All layer outputs
// share one allocation.
func (m *MLP) forward(x []float64, keep bool) ([]float64, *Cache) {
	if len(x) != m.InSize() {
		panic(fmt.Sprintf("nn: input size %d, want %d", len(x), m.InSize()))
	}
	var c *Cache
	if keep {
		c = &Cache{acts: make([][]float64, 0, len(m.weights)+1)}
		c.acts = append(c.acts, append([]float64(nil), x...))
	}
	total := 0
	for _, w := range m.sizes[1:] {
		total += w
	}
	buf := make([]float64, total)
	cur := x
	last := len(m.weights) - 1
	for l, w := range m.weights {
		in, out := m.sizes[l], m.sizes[l+1]
		next := buf[:out:out]
		buf = buf[out:]
		matmulNT(next, cur, w, m.biases[l], 1, in, out)
		if l != last {
			applyActivation(m.hidden, next)
		}
		cur = next
		if keep {
			c.acts = append(c.acts, cur)
		}
	}
	return cur, c
}

// Grads accumulates parameter gradients with the same shapes as the MLP's
// weights and biases.
type Grads struct {
	weights [][]float64
	biases  [][]float64
	count   int // number of accumulated samples (for averaging)
}

// NewGrads allocates a zeroed gradient accumulator matching m.
func (m *MLP) NewGrads() *Grads {
	g := &Grads{}
	for l := range m.weights {
		g.weights = append(g.weights, make([]float64, len(m.weights[l])))
		g.biases = append(g.biases, make([]float64, len(m.biases[l])))
	}
	return g
}

// Zero resets the accumulator.
func (g *Grads) Zero() {
	for l := range g.weights {
		clear(g.weights[l])
		clear(g.biases[l])
	}
	g.count = 0
}

// Count returns the number of accumulated Backward calls since Zero.
func (g *Grads) Count() int { return g.count }

// Add accumulates other into g scaled by factor.
func (g *Grads) Add(other *Grads, factor float64) {
	for l := range g.weights {
		for i := range g.weights[l] {
			g.weights[l][i] += factor * other.weights[l][i]
		}
		for i := range g.biases[l] {
			g.biases[l][i] += factor * other.biases[l][i]
		}
	}
	g.count += other.count
}

// Scale multiplies all gradients by factor.
func (g *Grads) Scale(factor float64) {
	for l := range g.weights {
		for i := range g.weights[l] {
			g.weights[l][i] *= factor
		}
		for i := range g.biases[l] {
			g.biases[l][i] *= factor
		}
	}
}

// GlobalNorm returns the L2 norm over all gradient entries.
func (g *Grads) GlobalNorm() float64 {
	sum := 0.0
	for l := range g.weights {
		for _, v := range g.weights[l] {
			sum += v * v
		}
		for _, v := range g.biases[l] {
			sum += v * v
		}
	}
	return math.Sqrt(sum)
}

// ClipGlobalNorm rescales gradients so their global L2 norm is at most max.
func (g *Grads) ClipGlobalNorm(max float64) {
	n := g.GlobalNorm()
	if n > max && n > 0 {
		g.Scale(max / n)
	}
}

// AllFinite reports whether every accumulated gradient entry is a finite
// number — the pre-apply scan the training guard runs before letting an
// optimizer step through. (GlobalNorm also surfaces NaN/Inf, but can
// overflow to +Inf on legitimately huge finite gradients; this scan
// cannot false-positive.)
func (g *Grads) AllFinite() bool {
	for l := range g.weights {
		if !allFinite(g.weights[l]) || !allFinite(g.biases[l]) {
			return false
		}
	}
	return true
}

// Poison overwrites the first weight gradient with v. It exists for
// deterministic fault injection (internal/faults GradPoison): one NaN is
// enough to poison the optimizer apply, and touching a single fixed
// entry keeps chaos runs replayable.
func (g *Grads) Poison(v float64) {
	for l := range g.weights {
		if len(g.weights[l]) > 0 {
			g.weights[l][0] = v
			return
		}
	}
}

// AllFinite reports whether every parameter of the network is a finite
// number. Used by the training guard to detect nets already poisoned by
// an earlier bad apply.
func (m *MLP) AllFinite() bool {
	for l := range m.weights {
		if !allFinite(m.weights[l]) || !allFinite(m.biases[l]) {
			return false
		}
	}
	return true
}

func allFinite(xs []float64) bool {
	for _, v := range xs {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Backward accumulates dLoss/dParams into grads for one sample, given the
// cache from ForwardCache and the gradient of the loss with respect to the
// network output. It returns the gradient of the loss with respect to the
// network input (useful for chaining, unused by most callers).
func (m *MLP) Backward(c *Cache, gradOut []float64, grads *Grads) []float64 {
	if len(gradOut) != m.OutSize() {
		panic(fmt.Sprintf("nn: gradOut size %d, want %d", len(gradOut), m.OutSize()))
	}
	delta := append([]float64(nil), gradOut...)
	for l := len(m.weights) - 1; l >= 0; l-- {
		in := m.sizes[l]
		input := c.acts[l]
		output := c.acts[l+1]
		if l != len(m.weights)-1 {
			for o := range delta {
				delta[o] *= m.hidden.derivFromOutput(output[o])
			}
		}
		w := m.weights[l]
		gw := grads.weights[l]
		gb := grads.biases[l]
		prev := make([]float64, in)
		for o, d := range delta {
			gb[o] += d
			row := w[o*in : (o+1)*in]
			grow := gw[o*in : (o+1)*in]
			for i, v := range input {
				grow[i] += d * v
				prev[i] += d * row[i]
			}
		}
		delta = prev
	}
	grads.count++
	return delta
}

// ApplyDelta adds delta (same shapes as Grads) scaled by factor to the
// parameters. Optimizers use this as the single mutation point.
func (m *MLP) ApplyDelta(g *Grads, factor float64) {
	for l := range m.weights {
		for i := range m.weights[l] {
			m.weights[l][i] += factor * g.weights[l][i]
		}
		for i := range m.biases[l] {
			m.biases[l][i] += factor * g.biases[l][i]
		}
	}
}

// Clone returns a deep copy of the network.
func (m *MLP) Clone() *MLP {
	c := &MLP{sizes: append([]int(nil), m.sizes...), hidden: m.hidden}
	for l := range m.weights {
		c.weights = append(c.weights, append([]float64(nil), m.weights[l]...))
		c.biases = append(c.biases, append([]float64(nil), m.biases[l]...))
	}
	return c
}

// CopyFrom overwrites m's parameters with src's. The architectures must
// match.
func (m *MLP) CopyFrom(src *MLP) error {
	if len(m.sizes) != len(src.sizes) {
		return errors.New("nn: CopyFrom architecture mismatch")
	}
	for i := range m.sizes {
		if m.sizes[i] != src.sizes[i] {
			return errors.New("nn: CopyFrom architecture mismatch")
		}
	}
	for l := range m.weights {
		copy(m.weights[l], src.weights[l])
		copy(m.biases[l], src.biases[l])
	}
	return nil
}

// Save serializes the network with gob (the wire layout of MLPWire; gob
// matches struct fields by name, so streams from earlier versions decode).
func (m *MLP) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(m.Wire())
}

// Load deserializes a network saved with Save.
func Load(r io.Reader) (*MLP, error) {
	var wire MLPWire
	if err := gob.NewDecoder(r).Decode(&wire); err != nil {
		return nil, fmt.Errorf("nn: load: %w", err)
	}
	m, err := MLPFromWire(wire)
	if err != nil {
		return nil, fmt.Errorf("nn: load: %w", err)
	}
	return m, nil
}

// Softmax returns the softmax of logits, computed stably.
func Softmax(logits []float64) []float64 {
	out := make([]float64, len(logits))
	SoftmaxInto(out, logits)
	return out
}

// SoftmaxInto writes the softmax of logits into dst (allocation-free; the
// two may not alias partially, but dst == logits is fine). len(dst) must
// equal len(logits).
func SoftmaxInto(dst, logits []float64) {
	if len(dst) != len(logits) {
		panic(fmt.Sprintf("nn: softmax dst len %d, want %d", len(dst), len(logits)))
	}
	if len(logits) == 0 {
		return
	}
	out := dst
	max := logits[0]
	for _, v := range logits[1:] {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range logits {
		e := math.Exp(v - max)
		out[i] = e
		sum += e
	}
	for i := range out {
		out[i] /= sum
	}
}

// LogSumExp returns log(sum(exp(xs))) computed stably.
func LogSumExp(xs []float64) float64 {
	if len(xs) == 0 {
		return math.Inf(-1)
	}
	max := xs[0]
	for _, v := range xs[1:] {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for _, v := range xs {
		sum += math.Exp(v - max)
	}
	return max + math.Log(sum)
}
