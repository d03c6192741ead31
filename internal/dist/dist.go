// Package dist implements the cyclic data distribution that the CA-CQR2
// reproduction's grid algorithms are written against: an M × N global
// matrix spread over a PR × PC process grid so that the rank at grid
// coordinates (row, col) owns every global element (i, j) with
//
//	i ≡ row (mod PR)  and  j ≡ col (mod PC),
//
// stored locally at (i/PR, j/PC). The layout is the rectangular analogue
// of the block-cyclic distributions of CAQR/TSQR (Demmel, Grigori,
// Hoemmen & Langou, arXiv:0808.2664, with block size 1) and of the 3D
// grid distribution of Ballard et al. (arXiv:1805.05278); the paper's
// Algorithms 1–3 and 8–9 all assume it.
//
// Cyclic ownership has two properties the algorithms lean on:
//
//   - Quadrants commute with distribution: the local block of a global
//     quadrant is the matching quadrant of the local block (whenever the
//     quadrant dimensions stay divisible by the grid extents), which is
//     what lets CFR3D recurse on views of its local block.
//   - Transposes stay cyclic: rank (row, col)'s block of Aᵀ is the local
//     transpose of rank (col, row)'s block of A, which is what makes the
//     paper's pairwise Transpose collective a single exchange.
//
// The package provides three layers:
//
//   - Pure layout arithmetic: FromGlobal extracts one rank's block,
//     AssembleGlobal inverts it, and the pair is an exact identity.
//   - Wire format: Flatten/Unflatten convert between *lin.Matrix (which
//     may be a strided view) and the contiguous row-major []float64 that
//     transports move, copying only strided views.
//   - Collectives on matrices (collect.go): Bcast, Reduce, Allreduce,
//     Exchange, Send/Recv, and the layout-aware Scatter, Gather,
//     Allgather and GatherRows. Each is one transport primitive on the
//     flattened operand, so its α-β cost is accounted like any other
//     communication, and the algorithm packages call these and never
//     the wire format: this package is the only place a matrix meets a
//     transport.Comm.
//
// One ownership rule covers all of them. An operand is borrowed: it is
// read during the call, never kept and never written, so a caller may
// pass a view of storage it goes on using. A destination — the dst of
// Bcast, Reduce, Allreduce, Exchange and Allgather — is owned by the
// caller before the call, never aliases an operand, and is the result
// after it: a compact matrix of the result's shape that the call fills
// and returns, allocating nothing, which is how a rank body keeps its
// results in storage it took once (grid.Workspace). A nil destination
// asks for a fresh matrix nothing else aliases, and the functions
// without one (Recv, Scatter, Gather, GatherRows — what enters and
// leaves a job) always return that. The one exception is Bcast's root,
// which gets its own operand back (there is nothing to copy it for) and
// uses its destination only as room to pack a strided operand for the
// wire, so a root that writes the result writes its operand.
//
// All functions reject shapes the layout cannot represent exactly: the
// grid extents must divide the matrix dimensions (the paper's m mod d = 0,
// n mod c = 0 requirement). There is no padding path — callers pick grids
// that divide their matrices, as the seed algorithms do.
package dist

import (
	"fmt"

	"cacqr/internal/lin"
)

// Matrix is one rank's view of a cyclically distributed global matrix.
type Matrix struct {
	M, N     int         // global dimensions
	PR, PC   int         // process-grid extents (rows × cols of ranks)
	Row, Col int         // this rank's grid coordinates
	Local    *lin.Matrix // the (M/PR) × (N/PC) local block
}

// checkGrid validates a process-grid shape against global dimensions.
func checkGrid(m, n, pr, pc int) error {
	if pr < 1 || pc < 1 {
		return fmt.Errorf("dist: invalid %dx%d process grid", pr, pc)
	}
	if m < 0 || n < 0 {
		return fmt.Errorf("dist: negative global dimensions %dx%d", m, n)
	}
	if m%pr != 0 || n%pc != 0 {
		return fmt.Errorf("dist: %dx%d matrix not divisible by %dx%d process grid (need pr | m and pc | n)", m, n, pr, pc)
	}
	return nil
}

// FromGlobal extracts the cyclic block of global owned by the rank at
// (row, col) on a pr × pc process grid: local element (i, j) is global
// element (i·pr + row, j·pc + col). The block is a copy; mutating it does
// not affect global. The grid extents must divide the global dimensions.
func FromGlobal(global *lin.Matrix, pr, pc, row, col int) (*Matrix, error) {
	if global == nil {
		return nil, fmt.Errorf("dist: FromGlobal of a nil matrix")
	}
	if err := checkGrid(global.Rows, global.Cols, pr, pc); err != nil {
		return nil, err
	}
	local := lin.NewMatrix(global.Rows/pr, global.Cols/pc)
	if err := Extract(global, pr, pc, row, col, local); err != nil {
		return nil, err
	}
	return &Matrix{
		M: global.Rows, N: global.Cols,
		PR: pr, PC: pc,
		Row: row, Col: col,
		Local: local,
	}, nil
}

// Extract is FromGlobal writing the block into dst, a caller-owned
// (Rows/pr) × (Cols/pc) matrix that may be a view and must not overlap
// global.
func Extract(global *lin.Matrix, pr, pc, row, col int, dst *lin.Matrix) error {
	if err := checkGrid(global.Rows, global.Cols, pr, pc); err != nil {
		return err
	}
	if row < 0 || row >= pr || col < 0 || col >= pc {
		return fmt.Errorf("dist: grid coordinates (%d,%d) outside %dx%d grid", row, col, pr, pc)
	}
	lr, lc := global.Rows/pr, global.Cols/pc
	if dst.Rows != lr || dst.Cols != lc {
		return fmt.Errorf("dist: extracting a %dx%d block into a %dx%d destination", lr, lc, dst.Rows, dst.Cols)
	}
	for i := 0; i < lr; i++ {
		src := global.Data[(i*pr+row)*global.Stride+col:]
		out := dst.Data[i*dst.Stride : i*dst.Stride+lc]
		for j := range out {
			out[j] = src[j*pc]
		}
	}
	return nil
}

// AssembleGlobal reassembles the m × n global matrix from the pr·pc
// per-rank cyclic blocks, given in row-major grid order: pieces[r·pc + c]
// is the block of the rank at grid coordinates (r, c) — the ordering of a
// grid slice communicator (index y·pc + x). It is the exact inverse of
// FromGlobal over every rank.
func AssembleGlobal(m, n, pr, pc int, pieces []*lin.Matrix) (*lin.Matrix, error) {
	if err := checkGrid(m, n, pr, pc); err != nil {
		return nil, err
	}
	if len(pieces) != pr*pc {
		return nil, fmt.Errorf("dist: %d pieces for a %dx%d process grid, want %d", len(pieces), pr, pc, pr*pc)
	}
	lr, lc := m/pr, n/pc
	for r, p := range pieces {
		if p == nil {
			return nil, fmt.Errorf("dist: nil piece for rank %d", r)
		}
		if p.Rows != lr || p.Cols != lc {
			return nil, fmt.Errorf("dist: piece %d is %dx%d, want %dx%d", r, p.Rows, p.Cols, lr, lc)
		}
	}
	global := lin.NewMatrix(m, n)
	for r, p := range pieces {
		interleave(global, pr, pc, r/pc, r%pc, p.Data, p.Stride)
	}
	return global, nil
}

// interleave writes the cyclic block of the rank at (row, col) — rows of
// global.Cols/pc values, stride apart in data — into its places in global.
func interleave(global *lin.Matrix, pr, pc, row, col int, data []float64, stride int) {
	lr, lc := global.Rows/pr, global.Cols/pc
	for i := 0; i < lr; i++ {
		src := data[i*stride : i*stride+lc]
		dst := global.Data[(i*pr+row)*global.Stride+col:]
		for j, v := range src {
			dst[j*pc] = v
		}
	}
}
