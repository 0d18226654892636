package nn

import (
	"math"
	"math/rand"
	"os"
	"os/exec"
	"testing"
)

// The reference loops below are the AVX2 paths of matmulNT, accumGrads and
// backpropDelta as they stood before the per-layer kernels — one
// dotAsm/axpyAsm call per (row, output) — and the Go loops of the tanh
// derivative and adamUpdate. The kernels are defined to reproduce them bit
// for bit, so the differential tests compare exact bit patterns, NaN
// payloads included.

func refMatmulNT(dst, src, w, bias []float64, b, in, out int) {
	for r := 0; r < b; r++ {
		xr := src[r*in : r*in+in]
		dr := dst[r*out : r*out+out]
		for o := 0; o < out; o++ {
			dr[o] = bias[o] + dotAsm(w[o*in:o*in+in], xr)
		}
	}
}

func refAccumGrads(gw, gb, delta, x []float64, b, in, out int) {
	for o := 0; o < out; o++ {
		grow := gw[o*in : o*in+in]
		sum := 0.0
		for r := 0; r < b; r++ {
			d := delta[r*out+o]
			sum += d
			if d != 0 {
				axpyAsm(grow, x[r*in:r*in+in], d)
			}
		}
		gb[o] += sum
	}
}

func refBackpropDelta(dst, delta, w []float64, b, in, out int) {
	clear(dst[:b*in])
	for r := 0; r < b; r++ {
		pr := dst[r*in : r*in+in]
		for o := 0; o < out; o++ {
			d := delta[r*out+o]
			if d != 0 {
				axpyAsm(pr, w[o*in:o*in+in], d)
			}
		}
	}
}

func refTanhDeriv(delta, y []float64) {
	for i, yi := range y {
		delta[i] *= 1 - yi*yi
	}
}

func refAdamUpdate(params, grad, m, v []float64, a *Adam, c1, c2 float64) {
	for i, gi := range grad {
		m[i] = a.Beta1*m[i] + (1-a.Beta1)*gi
		v[i] = a.Beta2*v[i] + (1-a.Beta2)*gi*gi
		mhat := m[i] / c1
		vhat := v[i] / c2
		params[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Epsilon)
	}
}

func requireASM(t testing.TB) {
	t.Helper()
	if !useASM {
		t.Skip("AVX2+FMA kernels not selected on this CPU")
	}
}

func requireTanhASM(t testing.TB) {
	t.Helper()
	if !useTanhASM {
		t.Skip("tanh port not selected (no AVX2+FMA, or math.Exp without FMA)")
	}
}

// specials are the values the differential tests mix into their inputs:
// signed zeros decide the zero-skip and the sign of exact-zero sums, NaNs
// with distinct payloads pin operand order, infinities turn a wrongly
// applied zero coefficient into NaN.
var specials = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0xfff8000000000000), math.Float64frombits(0x7ff0000000000abc),
	5e-324, -2.2250738585072009e-308, 1e300, -1e-300,
}

// fillMixed fills xs with normal draws, replacing about pSpecial of them by
// specials and about pZero of them by a signed zero.
func fillMixed(rng *rand.Rand, xs []float64, pSpecial, pZero float64) {
	for i := range xs {
		switch u := rng.Float64(); {
		case u < pSpecial:
			xs[i] = specials[rng.Intn(len(specials))]
		case u < pSpecial+pZero:
			xs[i] = math.Copysign(0, float64(rng.Intn(2)*2-1))
		default:
			xs[i] = rng.NormFloat64()
		}
	}
}

func mixed(rng *rand.Rand, n int, pSpecial, pZero float64) []float64 {
	xs := make([]float64, n)
	fillMixed(rng, xs, pSpecial, pZero)
	return xs
}

// requireSameBits fails on the first element whose bit pattern differs.
func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: len %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// kernelShape draws batch, in and out uniformly from [1, 70], covering
// every 32/16/masked tile split and every dot tail length.
func kernelShape(rng *rand.Rand) (b, in, out int) {
	return 1 + rng.Intn(70), 1 + rng.Intn(70), 1 + rng.Intn(70)
}

// Specials are rare enough that most outputs stay finite, so the tests
// also compare ordinary arithmetic, not only NaN propagation.
const (
	pSpecial = 0.01
	pZero    = 0.15
)

func TestMatmulNTKernelMatchesRef(t *testing.T) {
	requireASM(t)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		b, in, out := kernelShape(rng)
		src := mixed(rng, b*in, pSpecial, pZero)
		w := mixed(rng, out*in, pSpecial, pZero)
		bias := mixed(rng, out, pSpecial, pZero)
		got := mixed(rng, b*out, 0.5, 0)
		want := append([]float64(nil), got...)
		matmulNT(got, src, w, bias, b, in, out)
		refMatmulNT(want, src, w, bias, b, in, out)
		requireSameBits(t, "matmulNT", got, want)
	}
}

func TestAccumGradsKernelMatchesRef(t *testing.T) {
	requireASM(t)
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 400; trial++ {
		b, in, out := kernelShape(rng)
		delta := mixed(rng, b*out, pSpecial, 0.3)
		x := mixed(rng, b*in, pSpecial, pZero)
		gw := mixed(rng, out*in, pSpecial, 0.3)
		gb := mixed(rng, out, pSpecial, 0.3)
		wantW := append([]float64(nil), gw...)
		wantB := append([]float64(nil), gb...)
		accumGrads(gw, gb, delta, x, b, in, out)
		refAccumGrads(wantW, wantB, delta, x, b, in, out)
		requireSameBits(t, "accumGrads weights", gw, wantW)
		requireSameBits(t, "accumGrads biases", gb, wantB)
	}
}

func TestBackpropDeltaKernelMatchesRef(t *testing.T) {
	requireASM(t)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 400; trial++ {
		b, in, out := kernelShape(rng)
		delta := mixed(rng, b*out, pSpecial, 0.3)
		w := mixed(rng, out*in, pSpecial, pZero)
		got := mixed(rng, b*in, 0.5, 0)
		want := mixed(rng, b*in, 0.5, 0)
		backpropDelta(got, delta, w, b, in, out)
		refBackpropDelta(want, delta, w, b, in, out)
		requireSameBits(t, "backpropDelta", got, want)
	}
}

func TestTanhDerivKernelMatchesRef(t *testing.T) {
	requireASM(t)
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(70)
		y := mixed(rng, n, pSpecial, pZero)
		got := mixed(rng, n, pSpecial, pZero)
		want := append([]float64(nil), got...)
		applyActivationDeriv(Tanh, got, y)
		refTanhDeriv(want, y)
		requireSameBits(t, "tanh deriv", got, want)
	}
}

func TestAdamKernelMatchesRef(t *testing.T) {
	requireASM(t)
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(70)
		a := NewAdam(math.Exp(-3 - 5*rng.Float64()))
		p, m, v := mixed(rng, n, pSpecial, pZero), mixed(rng, n, 0, pZero), make([]float64, n)
		for i := range v {
			v[i] = math.Abs(rng.NormFloat64())
		}
		wp, wm, wv := append([]float64(nil), p...), append([]float64(nil), m...), append([]float64(nil), v...)
		for step := 1; step <= 3; step++ {
			g := mixed(rng, n, pSpecial, pZero)
			c1 := 1 - math.Pow(a.Beta1, float64(step))
			c2 := 1 - math.Pow(a.Beta2, float64(step))
			adamUpdate(p, g, m, v, a, c1, c2)
			refAdamUpdate(wp, g, wm, wv, a, c1, c2)
			requireSameBits(t, "adam params", p, wp)
			requireSameBits(t, "adam m", m, wm)
			requireSameBits(t, "adam v", v, wv)
		}
	}
}

// tanhProbe returns inputs concentrated where math.Tanh can go wrong: both
// sides of the 0.625 and 0.5*MAXLOG branch edges, every binade from
// subnormal to overflow, the specials, and raw bit patterns.
func tanhProbe(rng *rand.Rand) []float64 {
	var xs []float64
	add := func(x float64) { xs = append(xs, x, -x) }
	for _, edge := range []float64{0.625, 0.5 * 8.8029691931113054295988e+01} {
		lo, hi := edge, edge
		for k := 0; k < 2000; k++ {
			add(lo)
			add(hi)
			lo, hi = math.Nextafter(lo, 0), math.Nextafter(hi, math.Inf(1))
		}
	}
	for e := -1075; e <= 1024; e++ {
		for k := 0; k < 64; k++ {
			add(math.Ldexp(1+rng.Float64(), e))
		}
	}
	for k := 0; k < 200000; k++ {
		add(50 * (2*rng.Float64() - 1))
		xs = append(xs, math.Float64frombits(rng.Uint64()))
	}
	xs = append(xs, specials...)
	for len(xs)%4 != 0 {
		xs = append(xs, 0)
	}
	return xs
}

func TestTanhKernelMatchesMathTanh(t *testing.T) {
	requireTanhASM(t)
	xs := tanhProbe(rand.New(rand.NewSource(5)))
	got := append([]float64(nil), xs...)
	tanhAsm(got)
	want := make([]float64, len(xs))
	for i, x := range xs {
		want[i] = math.Tanh(x)
	}
	requireSameBits(t, "tanh", got, want)
}

// FuzzTanh compares the four-lane tanh port against math.Tanh bit for bit,
// one input per lane. The seed corpus covers the specials, subnormals, and
// both sides of Tanh's 0.625 and 0.5*MAXLOG branch edges.
func FuzzTanh(f *testing.F) {
	const sat = 0.5 * 8.8029691931113054295988e+01
	f.Add(0.0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1))
	f.Add(math.NaN(), 5e-324, -5e-324, 2.2250738585072009e-308)
	f.Add(0.625, math.Nextafter(0.625, 0), -0.625, -math.Nextafter(0.625, 0))
	f.Add(sat, math.Nextafter(sat, 0), math.Nextafter(sat, 100), -sat)
	f.Add(44.0148459655565, 0.5, 1.0, 19.06154746539849)
	f.Add(-3.0, 1e-8, -0.3, 710.0)
	f.Fuzz(func(t *testing.T, a, b, c, d float64) {
		requireTanhASM(t)
		xs := []float64{a, b, c, d}
		tanhAsm(xs)
		for i, x := range []float64{a, b, c, d} {
			if want := math.Tanh(x); math.Float64bits(xs[i]) != math.Float64bits(want) {
				t.Fatalf("tanh(%v) lane %d = %v (%#x), want %v (%#x)", x, i,
					xs[i], math.Float64bits(xs[i]), want, math.Float64bits(want))
			}
		}
	})
}

// TestApplyActivationTanhMatchesMath checks applyActivation, the port plus
// its scalar tail, against math.Tanh on the probe set at every tail length.
func TestApplyActivationTanhMatchesMath(t *testing.T) {
	xs := tanhProbe(rand.New(rand.NewSource(6)))
	for tail := 0; tail < 4; tail++ {
		in := xs[:len(xs)-tail]
		got := append([]float64(nil), in...)
		applyActivation(Tanh, got)
		for i, x := range in {
			if want := math.Tanh(x); math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("len %d: tanh(%v) = %v, want %v", len(in), x, got[i], want)
			}
		}
	}
}

// TestTanhPortGatedByMathFMA reruns the activation check in a child process
// with GODEBUG=cpu.fma=off, where math.Exp takes its plain path: the gate
// must turn the port off, so applyActivation still matches math.Tanh.
func TestTanhPortGatedByMathFMA(t *testing.T) {
	if os.Getenv("GENET_NN_FMA_OFF_CHILD") == "1" {
		if useTanhASM {
			t.Fatal("tanh port selected although math.Exp runs without FMA")
		}
		return
	}
	requireASM(t)
	cmd := exec.Command(os.Args[0], "-test.count=1",
		"-test.run=^(TestTanhPortGatedByMathFMA|TestApplyActivationTanhMatchesMath)$")
	cmd.Env = append(os.Environ(), "GODEBUG=cpu.fma=off", "GENET_NN_FMA_OFF_CHILD=1")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child with GODEBUG=cpu.fma=off: %v\n%s", err, out)
	}
}
