//go:build !amd64 || purego

package lin

func microKernel(rows, kc int, a []float64, ars, aks int, b []float64, bks int, alpha, beta float64, c []float64, cs int) {
	kernelGo(rows, kc, a, ars, aks, b, bks, alpha, beta, c, cs)
}
