// Autotune: let the cost-model planner pick the grid and algorithm
// variant across the paper's matrix-shape regimes.
//
// The paper's central knob is the c × d × c grid: c = 1 is the 1D
// algorithm (best for very tall matrices), c = d is the 3D algorithm
// (best near square), and the right interpolation depends on shape,
// processor count, and machine constants. PlanGrid automates the choice
// the paper's Tables I–VI discussion makes by hand: this example plans
// three shapes at Stampede2 scale (pure arithmetic — no simulation) and
// shows the chosen c moving from 1 toward d as the matrix fills out,
// then runs one planned factorization end to end at laptop scale.
//
//	go run ./examples/autotune
package main

import (
	"fmt"
	"log"

	cacqr "cacqr"
)

func main() {
	const procs = 4096 // 64 Stampede2 nodes × 64 processes
	shapes := []struct {
		name string
		m, n int
	}{
		{"very tall (2²⁵×2⁶)", 1 << 25, 1 << 6},
		{"moderately rectangular (2²⁰×2¹⁰)", 1 << 20, 1 << 10},
		{"near-square (2¹⁵×2¹³)", 1 << 15, 1 << 13},
	}

	fmt.Printf("planning on %s, ≤%d ranks:\n\n", cacqr.Stampede2.Name, procs)
	for _, s := range shapes {
		plans, err := cacqr.PlanGrid(s.m, s.n, procs, cacqr.Options{})
		if err != nil {
			log.Fatalf("%s: %v", s.name, err)
		}
		best := plans[0]
		fmt.Printf("%s\n", s.name)
		fmt.Printf("  chosen: %-14s grid %-10s c=%d  predicted %.3gs\n",
			best.Variant, best.GridString(), best.C, best.Seconds)
		fmt.Printf("          α=%d β=%d γ=%d, %d words/rank\n",
			best.Cost.Msgs, best.Cost.Words, best.Cost.TotalFlops(), best.MemWords)
		fmt.Printf("          %s\n", best.Rationale)
		// The runner-up shows what the planner traded away.
		if len(plans) > 1 {
			up := plans[1]
			fmt.Printf("  runner-up: %s %s (%.3gs)\n", up.Variant, up.GridString(), up.Seconds)
		}
		fmt.Println()
	}
	fmt.Println("the chosen c moves from 1 (pure 1D) toward d as the matrix approaches square —")
	fmt.Println("replication buys √c less bandwidth per rank exactly when the Gram matrix dominates.")

	// End to end at laptop scale: the planner chooses, the simulated
	// grid executes, and the measured cost matches the prediction.
	const m, n, p = 1024, 64, 16
	a := cacqr.RandomMatrix(m, n, 7)
	res, err := cacqr.AutoFactorize(a, p, cacqr.Options{})
	if err != nil {
		log.Fatalf("auto factorization failed: %v", err)
	}
	fmt.Printf("\nAutoFactorize %dx%d on ≤%d ranks: chose %s %s\n",
		m, n, p, res.Plan.Variant, res.Plan.GridString())
	fmt.Printf("  orthogonality ‖QᵀQ−I‖_F = %.2e\n", cacqr.OrthogonalityError(res.Q))
	fmt.Printf("  residual ‖A−QR‖/‖A‖     = %.2e\n", cacqr.ResidualNorm(a, res.Q, res.R))
	fmt.Printf("  predicted γ=%d flops, measured γ=%d\n", res.Plan.Cost.TotalFlops(), res.Stats.Flops)
	fmt.Printf("  predicted β=%d words, measured β=%d (difference is the scatter of A and the gather of Q)\n",
		res.Plan.Cost.Words, res.Stats.Words)

	// Condition-aware routing: the same shape, but ill-conditioned.
	// CholeskyQR2's Gram matrix squares κ, so at κ=1e10 the plain family
	// cannot deliver orthogonality — the planner detects this (here via
	// an explicit hint; leave CondEst unset and AutoFactorize measures
	// one by power iteration) and routes to the shifted three-pass
	// variant instead.
	ill := cacqr.RandomWithCond(m, n, 1e10, 8)
	if _, _, err := cacqr.CholeskyQR2(ill); err != nil {
		fmt.Printf("\nκ=1e10 input: plain CholeskyQR2 fails (%v)\n", err)
	}
	resIll, err := cacqr.AutoFactorize(ill, p, cacqr.Options{CondEst: 1e10})
	if err != nil {
		log.Fatalf("condition-aware factorization failed: %v", err)
	}
	fmt.Printf("AutoFactorize with CondEst=1e10: chose %s %s\n",
		resIll.Plan.Variant, resIll.Plan.GridString())
	fmt.Printf("  orthogonality ‖QᵀQ−I‖_F = %.2e (predicted ≤ %.0e)\n",
		cacqr.OrthogonalityError(resIll.Q), resIll.Plan.PredOrth)
}
