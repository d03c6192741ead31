// Least squares: fit a degree-5 polynomial to 4096 noisy samples by
// solving the overdetermined system min ‖A·x − b‖₂ with CA-CQR2 — the
// very-overdetermined workload the paper's introduction motivates.
//
// Given A = Q·R, the solution is x = R⁻¹·Qᵀ·b; SolveLeastSquares factors
// and back-substitutes in one call.
//
//	go run ./examples/leastsquares
package main

import (
	"fmt"
	"log"
	"math"
	"math/rand"

	cacqr "cacqr"
)

const (
	samples = 4096
	degree  = 5
	cols    = degree + 1
)

// truth is the polynomial the noisy data is drawn from.
func truth(t float64) float64 {
	return 2 - 1.5*t + 0.8*t*t - 0.3*t*t*t + 0.05*t*t*t*t - 0.01*t*t*t*t*t
}

func main() {
	rng := rand.New(rand.NewSource(11))

	// Vandermonde design matrix over t ∈ [-1, 1] and noisy observations.
	a := cacqr.NewDense(samples, cols)
	b := make([]float64, samples)
	for i := 0; i < samples; i++ {
		t := -1 + 2*float64(i)/float64(samples-1)
		pw := 1.0
		for j := 0; j < cols; j++ {
			a.Set(i, j, pw)
			pw *= t
		}
		b[i] = truth(t) + 0.01*rng.NormFloat64()
	}

	// Factor the tall-skinny design matrix on a simulated 2×8×2 grid
	// (32 ranks), as a cluster deployment would, and solve x = R⁻¹·Qᵀ·b.
	x, err := cacqr.SolveLeastSquares(a, b, cacqr.GridSpec{C: 2, D: 8}, cacqr.Options{})
	if err != nil {
		log.Fatalf("least-squares solve failed: %v", err)
	}

	fmt.Println("polynomial least-squares fit via CA-CQR2 (32 simulated ranks):")
	want := []float64{2, -1.5, 0.8, -0.3, 0.05, -0.01}
	fmt.Printf("  %-6s %-12s %-12s\n", "coef", "recovered", "true")
	var worst float64
	for j := 0; j < cols; j++ {
		fmt.Printf("  t^%d    %+.6f    %+.4f\n", j, x[j], want[j])
		if d := math.Abs(x[j] - want[j]); d > worst {
			worst = d
		}
	}
	fmt.Printf("max coefficient error: %.2e (noise floor ~1e-3)\n", worst)

	// Residual sanity: ‖A·x − b‖ should sit at the noise level.
	var rss float64
	for i := 0; i < samples; i++ {
		var pred float64
		for j := 0; j < cols; j++ {
			pred += a.At(i, j) * x[j]
		}
		rss += (pred - b[i]) * (pred - b[i])
	}
	fmt.Printf("RMS residual: %.4f (noise σ = 0.01)\n", math.Sqrt(rss/float64(samples)))
}
