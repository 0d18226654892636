package nn

import "math"

// Runtime-dispatched SIMD kernels (see asm_amd64.s). useASM is fixed at
// process start, so every forward/backward in a process runs the same code
// path and results stay bit-deterministic.

// cpuHasAVX2FMA reports whether the CPU and OS support the AVX2+FMA kernels.
func cpuHasAVX2FMA() bool

// dotAsm returns the dot product over len(a) elements; the caller must
// guarantee len(b) >= len(a). It and axpyAsm are the per-call primitives
// the layer kernels are defined against (see kernels_ref_test.go).
//
//go:noescape
func dotAsm(a, b []float64) float64

// axpyAsm adds alpha*x into dst elementwise over len(dst) elements; the
// caller must guarantee len(x) >= len(dst).
//
//go:noescape
func axpyAsm(dst, x []float64, alpha float64)

// matmulNTAsm is matmulNT's AVX2 path: dst = src*wᵀ + bias over b rows,
// one dotAsm-identical dot per output. Lengths are the caller's contract.
//
//go:noescape
func matmulNTAsm(dst, src, w, bias []float64, b, in, out int)

// fmaRowsAsm is the shared core of accumGrads and backpropDelta: for each
// of rows destination rows of width n, apply the axpy updates
// dst[d] += c*src[j] for j < k in order, skipping c == 0, where
// c = coef[d*cRow+j*cStep]. Lengths are the caller's contract.
//
//go:noescape
func fmaRowsAsm(dst, coef, src []float64, rows, k, n, cRow, cStep int)

// colSumAddAsm adds the column sums of the row-major [b x out] delta into
// gb, each column summed sequentially from zero.
//
//go:noescape
func colSumAddAsm(gb, delta []float64, b, out int)

// tanhAsm applies math.Tanh in place to the first len(xs)&^3 elements.
//
//go:noescape
func tanhAsm(xs []float64)

// tanhDerivAsm multiplies delta by tanh's derivative 1 - y*y in place over
// the first len(y)&^3 elements.
//
//go:noescape
func tanhDerivAsm(delta, y []float64)

// adamAsm runs the Adam update on the first len(grad)&^3 elements and
// returns how many it updated; h = {b1, 1-b1, b2, 1-b2, c1, c2, lr, eps}.
//
//go:noescape
func adamAsm(params, grad, m, v []float64, h *[8]float64) int

var useASM = cpuHasAVX2FMA()

// useTanhASM gates the tanh port, whose bit-exactness rests on math.Exp
// taking its FMA path. math picks that path from CPU features that
// GODEBUG=cpu.fma=off can mask, so it is checked once that math.Tanh agrees
// with the port on inputs where the FMA and plain exp paths round
// differently.
var useTanhASM = useASM && tanhPortMatchesMath()

func tanhPortMatchesMath() bool {
	probe := [4]float64{0.7786241294817617, 1.5248139735591415, 1.160954075129037, 0.9441470979496238}
	got := probe
	tanhAsm(got[:])
	for i, x := range probe {
		if math.Float64bits(got[i]) != math.Float64bits(math.Tanh(x)) {
			return false
		}
	}
	return true
}
