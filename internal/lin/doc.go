// Package lin provides the dense linear algebra substrate used by the
// CA-CQR2 reproduction: a row-major float64 matrix type and the
// BLAS/LAPACK-style kernels the paper's algorithms depend on (GEMM, SYRK,
// TRSM, TRMM, Cholesky, triangular inverse, Householder QR, norms, and
// random matrix generators).
//
// Everything is written from scratch on the standard library. The paper's
// case for CholeskyQR2 is that its flops are all level-3, so GEMM, SYRK
// and TRMM share one register-tiled 16×8 micro-kernel (kernel.go):
// AVX-512 assembly on amd64 CPUs that have it, AVX2/FMA assembly on the
// tile's 4-row quarters on those that have only that (the two agree
// bitwise), the same loop nest in plain Go everywhere else (other
// GOARCH, -tags purego). The serial and goroutine-parallel
// (GemmParallel, SyrkParallel, TrmmParallel) entry points are
// drivers over the same tile loops and agree bitwise, so worker counts
// never change numerics; a batch of small problems runs the serial
// kernels one item per pool worker (BatchApply). The strided-batch
// kernels (Slab, BatchGEMM, BatchSYRK, BatchTRSM) survive only as the
// frozen benchmark's probes (batch.go). Householder QR is blocked
// compact-WY (factor.go): 32-wide panels applied to the trailing columns
// through GEMM and TRMM; its hot caller is the κ estimator's fallback for
// ill-conditioned inputs (EstimateCond), which the daemon runs on every
// unhinted request. CholInv (factor.go), the Cholesky factor and its
// inverse that every CholeskyQR pass and CFR3D base case needs, is CFR3D's
// sequential recursion on the same kernel: a TRMM, a GEMM and two TRMMs
// per level around a scalar base case of order 16 or less (≈ 0.23 ms at
// n = 128, against ≈ 1 ms for the scalar loops it replaced). TRSM is
// scalar: it has no hot caller. The
// reproduction's cost model separates flop counts (which these kernels
// match exactly, whatever the vector width or worker count) from flop
// rates (which belong to the machine model). Each kernel family has a
// matching *Flops counter (flops.go) that the distributed algorithms
// charge to their rank's virtual clock.
package lin
