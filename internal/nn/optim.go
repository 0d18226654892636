package nn

import (
	"fmt"
	"math"
)

// Optimizer updates an MLP's parameters from accumulated gradients. Step
// interprets g as the gradient of a loss to *minimize*; callers doing
// gradient ascent (policy gradients) negate before accumulating or use
// Grads.Scale(-1).
type Optimizer interface {
	// Step applies one update and leaves g untouched.
	Step(m *MLP, g *Grads)
	// Reset clears optimizer state (e.g. Adam moments).
	Reset()
}

// SGD is plain stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64

	velocity *Grads
}

// NewSGD returns an SGD optimizer with the given learning rate.
func NewSGD(lr float64) *SGD { return &SGD{LR: lr} }

// Step implements Optimizer.
func (s *SGD) Step(m *MLP, g *Grads) {
	if s.Momentum == 0 {
		m.ApplyDelta(g, -s.LR)
		return
	}
	if s.velocity == nil {
		s.velocity = m.NewGrads()
	}
	s.velocity.Scale(s.Momentum)
	s.velocity.Add(g, 1)
	m.ApplyDelta(s.velocity, -s.LR)
}

// Reset implements Optimizer.
func (s *SGD) Reset() { s.velocity = nil }

// Adam implements the Adam optimizer (Kingma & Ba, 2015) with the usual
// bias-corrected first and second moment estimates.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	m, v *Grads
	t    int
}

// NewAdam returns an Adam optimizer with standard hyperparameters
// (beta1=0.9, beta2=0.999, eps=1e-8).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// Step implements Optimizer.
func (a *Adam) Step(net *MLP, g *Grads) {
	if a.m == nil {
		a.m = net.NewGrads()
		a.v = net.NewGrads()
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for l := range g.weights {
		adamUpdate(net.weights[l], g.weights[l], a.m.weights[l], a.v.weights[l], a, c1, c2)
		adamUpdate(net.biases[l], g.biases[l], a.m.biases[l], a.v.biases[l], a, c1, c2)
	}
}

// adamUpdate applies one Adam step elementwise. The AVX2 path updates four
// lanes at a time with the same IEEE operations, in the same order, as the
// Go loop below (no FMA: the amd64 compiler never fuses these multiplies
// and adds), and the Go loop finishes the remainder.
func adamUpdate(params, grad, m, v []float64, a *Adam, c1, c2 float64) {
	n := 0
	if useASM {
		_, _, _ = params[:len(grad)], m[:len(grad)], v[:len(grad)]
		h := [8]float64{a.Beta1, 1 - a.Beta1, a.Beta2, 1 - a.Beta2, c1, c2, a.LR, a.Epsilon}
		n = adamAsm(params, grad, m, v, &h)
	}
	for i := n; i < len(grad); i++ {
		gi := grad[i]
		m[i] = a.Beta1*m[i] + (1-a.Beta1)*gi
		v[i] = a.Beta2*v[i] + (1-a.Beta2)*gi*gi
		mhat := m[i] / c1
		vhat := v[i] / c2
		params[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Epsilon)
	}
}

// Reset implements Optimizer.
func (a *Adam) Reset() { a.m, a.v, a.t = nil, nil, 0 }

// GradCheck numerically verifies Backward against finite differences of a
// scalar loss at input x: loss(out) must be differentiable with gradient
// lossGrad(out). It returns the max relative error across parameters.
// Intended for tests.
func GradCheck(m *MLP, x []float64, loss func(out []float64) float64, lossGrad func(out []float64) []float64) float64 {
	out, cache := m.ForwardCache(x)
	g := m.NewGrads()
	m.Backward(cache, lossGrad(out), g)

	const eps = 1e-6
	maxErr := 0.0
	check := func(param []float64, analytic []float64, what string) {
		for i := range param {
			orig := param[i]
			param[i] = orig + eps
			lp := loss(m.Forward(x))
			param[i] = orig - eps
			lm := loss(m.Forward(x))
			param[i] = orig
			numeric := (lp - lm) / (2 * eps)
			denom := math.Max(1e-8, math.Abs(numeric)+math.Abs(analytic[i]))
			err := math.Abs(numeric-analytic[i]) / denom
			if err > maxErr {
				maxErr = err
				_ = what // retained for debugging via closure inspection
			}
		}
	}
	for l := range m.weights {
		check(m.weights[l], g.weights[l], fmt.Sprintf("w%d", l))
		check(m.biases[l], g.biases[l], fmt.Sprintf("b%d", l))
	}
	return maxErr
}
