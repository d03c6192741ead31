package tsqr

import (
	"fmt"

	"cacqr/internal/dist"
	"cacqr/internal/lin"
	"cacqr/internal/transport"
)

// tags for tree traffic.
const (
	tagUp   = 100
	tagDown = 101
)

// Factor computes the reduced QR factorization of the m×n matrix whose
// m/P × n row block on this rank is aLocal (m ≥ n, blocked row
// distribution, P a power of two). It returns this rank's block of the
// explicit orthonormal factor and the replicated n×n R.
//
// Up-sweep: local Householder QR, then log₂P pairwise rounds combining
// [R_i; R_j] by 2n×n QR factorizations. Down-sweep: the tree's Q factors
// are pushed back so every rank can assemble its explicit Q block.
// Per-processor cost: 2·log₂P messages, ~2·log₂P·n² words, and
// 2(m/P)n² + O(n³·log P) flops.
//
// workers bounds the goroutines each rank's local level-3 kernels may
// use (≤ 1 = serial, the right default for simulated grids). Results are
// identical for any value.
func Factor(comm transport.Comm, aLocal *lin.Matrix, m, n, workers int) (qLocal, r *lin.Matrix, err error) {
	if workers < 1 {
		workers = 1
	}
	p := comm.Size()
	if m%p != 0 {
		return nil, nil, fmt.Errorf("tsqr: m=%d not divisible by P=%d", m, p)
	}
	if p&(p-1) != 0 {
		return nil, nil, fmt.Errorf("tsqr: P=%d must be a power of two", p)
	}
	if aLocal.Rows != m/p || aLocal.Cols != n {
		return nil, nil, fmt.Errorf("tsqr: local block %dx%d, want %dx%d", aLocal.Rows, aLocal.Cols, m/p, n)
	}
	if m/p < n {
		return nil, nil, fmt.Errorf("tsqr: local block %dx%d is not tall (need m/P ≥ n)", m/p, n)
	}
	proc := comm.Proc()
	rank := comm.Index()

	// Local QR of the m/P × n block.
	qLoc, rCur, err := lin.QR(aLocal)
	if err != nil {
		return nil, nil, err
	}
	if err := proc.Compute(lin.HouseholderQRFlops(aLocal.Rows, n)); err != nil {
		return nil, nil, err
	}

	// Up-sweep: at level k the survivors are ranks ≡ 0 (mod 2^{k+1});
	// each receives its partner's R, stacks and refactors, remembering
	// the 2n×n tree Q for the down-sweep.
	type treeNode struct {
		q *lin.Matrix // 2n×n orthonormal factor of the stacked QR
	}
	var path []treeNode
	levels := 0
	for s := 1; s < p; s <<= 1 {
		levels++
	}
	active := true
	for k := 0; k < levels; k++ {
		if !active {
			continue
		}
		step := 1 << k
		if rank%(2*step) == 0 {
			partner := rank + step
			rPartner, err := dist.Recv(comm, partner, tagUp+k, n, n)
			if err != nil {
				return nil, nil, err
			}
			stacked := lin.NewMatrix(2*n, n)
			stacked.View(0, 0, n, n).CopyFrom(rCur)
			stacked.View(n, 0, n, n).CopyFrom(rPartner)
			qk, rNext, err := lin.QR(stacked)
			if err != nil {
				return nil, nil, err
			}
			if err := proc.Compute(lin.HouseholderQRFlops(2*n, n)); err != nil {
				return nil, nil, err
			}
			path = append(path, treeNode{q: qk})
			rCur = rNext
		} else {
			survivor := rank - step
			if err := dist.Send(comm, survivor, tagUp+k, rCur); err != nil {
				return nil, nil, err
			}
			active = false
		}
	}

	// Down-sweep: rank 0 starts with B = I; at each level the survivor
	// splits its tree Q into top/bottom n×n blocks, keeps Q_top·B and
	// sends Q_bot·B to the partner. Afterwards Q_local·B is this rank's
	// block of the explicit Q.
	var b *lin.Matrix
	if rank == 0 {
		b = lin.Identity(n)
	}
	for k := levels - 1; k >= 0; k-- {
		step := 1 << k
		if rank%(2*step) == 0 && rank+step < p {
			// Pop this level's tree node (pushed in ascending order).
			node := path[len(path)-1]
			path = path[:len(path)-1]
			top := node.q.View(0, 0, n, n)
			bot := node.q.View(n, 0, n, n)
			bTop := lin.MatMulParallel(workers, top.Clone(), b)
			bBot := lin.MatMulParallel(workers, bot.Clone(), b)
			if err := proc.Compute(2 * lin.GemmFlops(n, n, n)); err != nil {
				return nil, nil, err
			}
			if err := dist.Send(comm, rank+step, tagDown+k, bBot); err != nil {
				return nil, nil, err
			}
			b = bTop
		} else if rank%(2*step) == step {
			if b, err = dist.Recv(comm, rank-step, tagDown+k, n, n); err != nil {
				return nil, nil, err
			}
		}
	}

	// Broadcast the final R from rank 0 so every rank returns it (the
	// same contract as CA-CQR2 on a 1D grid).
	rOut, err := dist.Bcast(comm, 0, rCur, nil, n, n)
	if err != nil {
		return nil, nil, err
	}

	q := lin.MatMulParallel(workers, qLoc, b)
	if err := proc.Compute(lin.GemmFlops(aLocal.Rows, n, n)); err != nil {
		return nil, nil, err
	}

	// Normalize signs so R has a non-negative diagonal, making the
	// result directly comparable with the CholeskyQR family.
	lin.NormalizeSigns(q, rOut)
	return q, rOut, nil
}
