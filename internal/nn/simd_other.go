//go:build !amd64

package nn

// Non-amd64 platforms always use the pure-Go scalar kernels.

var (
	useASM     = false
	useTanhASM = false
)

func dotAsm(a, b []float64) float64                                    { panic(noASM) }
func axpyAsm(dst, x []float64, alpha float64)                          { panic(noASM) }
func matmulNTAsm(dst, src, w, bias []float64, b, in, out int)          { panic(noASM) }
func fmaRowsAsm(dst, coef, src []float64, rows, k, n, cRow, cStep int) { panic(noASM) }
func colSumAddAsm(gb, delta []float64, b, out int)                     { panic(noASM) }
func tanhAsm(xs []float64)                                             { panic(noASM) }
func tanhDerivAsm(delta, y []float64)                                  { panic(noASM) }
func adamAsm(params, grad, m, v []float64, h *[8]float64) int          { panic(noASM) }

const noASM = "nn: no asm kernels on this platform"
