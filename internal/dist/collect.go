package dist

import (
	"fmt"

	"cacqr/internal/lin"
	"cacqr/internal/transport"
)

// The matrix-typed collectives: every line of the paper's algorithms
// that moves a matrix over a fibre of the grid is one call here, and
// this file and wire.go are the only places a matrix meets a
// transport.Comm. All of them follow the package's ownership rule (see
// the package comment): an operand is borrowed, a result is the
// caller's, and a Bcast root gets its operand back.

// tagScatter tags Scatter's point-to-point sends. It lives well below the
// collectives' internal tag block (-101…) so user tags never collide.
const tagScatter = -1100

// Bcast hands root's rows × cols matrix to every member (the paper's
// Bcast(A, Π[…])). Only root reads a (the others may pass nil), and root
// gets a itself back; every other member gets a private copy.
func Bcast(comm transport.Comm, root int, a *lin.Matrix, rows, cols int) (*lin.Matrix, error) {
	isRoot := comm.Index() == root
	var flat []float64
	if isRoot && a != nil {
		flat = Flatten(a)
	}
	flat, err := comm.Bcast(root, flat)
	if err != nil {
		return nil, err
	}
	if !isRoot {
		return Unflatten(rows, cols, flat)
	}
	if a == nil || a.Rows != rows || a.Cols != cols {
		return nil, fmt.Errorf("dist: bcast root %d holds %s, declared as %dx%d", root, shape(a), rows, cols)
	}
	return a, nil
}

// Reduce sums the members' equal-shaped matrices onto root: the sum on
// root, nil elsewhere.
func Reduce(comm transport.Comm, root int, a *lin.Matrix) (*lin.Matrix, error) {
	flat, err := comm.Reduce(root, Flatten(a))
	if err != nil || comm.Index() != root {
		return nil, err
	}
	return Unflatten(a.Rows, a.Cols, flat)
}

// Allreduce sums the members' equal-shaped matrices and returns the sum
// on every member.
func Allreduce(comm transport.Comm, a *lin.Matrix) (*lin.Matrix, error) {
	flat, err := comm.Allreduce(Flatten(a))
	if err != nil {
		return nil, err
	}
	return Unflatten(a.Rows, a.Cols, flat)
}

// Exchange swaps equal-shaped matrices with a partner member and returns
// the partner's — the data movement of the paper's Transpose collective
// (the local transposition is the caller's). partner == self returns a
// copy.
func Exchange(comm transport.Comm, partner int, a *lin.Matrix) (*lin.Matrix, error) {
	flat, err := comm.Transpose(partner, Flatten(a))
	if err != nil {
		return nil, err
	}
	return Unflatten(a.Rows, a.Cols, flat)
}

// Send transfers a to member dst under tag; Recv is its other end and
// returns the rows × cols matrix member src sent.
func Send(comm transport.Comm, dst, tag int, a *lin.Matrix) error {
	return comm.Send(dst, tag, Flatten(a))
}

func Recv(comm transport.Comm, src, tag, rows, cols int) (*lin.Matrix, error) {
	flat, err := comm.Recv(src, tag)
	if err != nil {
		return nil, err
	}
	return Unflatten(rows, cols, flat)
}

// Scatter distributes the m × n matrix held by comm member root across
// the pr × pc process grid laid over comm in row-major order (member
// r ↔ grid coordinates (r/pc, r%pc), the ordering of a grid slice
// communicator). Every member receives its cyclic block, root included;
// only root reads global — other members pass nil. Root is charged one
// α + (m/pr)·(n/pc)·β send per non-root member, the cost of a
// straightforward MPI_Scatterv.
func Scatter(comm transport.Comm, root int, global *lin.Matrix, m, n, pr, pc int) (*Matrix, error) {
	if err := checkLayout("scatter", comm, m, n, pr, pc); err != nil {
		return nil, err
	}
	if root < 0 || root >= comm.Size() {
		return nil, fmt.Errorf("dist: scatter root %d out of range %d", root, comm.Size())
	}
	me := comm.Index()
	if me != root {
		local, err := Recv(comm, root, tagScatter, m/pr, n/pc)
		if err != nil {
			return nil, err
		}
		return &Matrix{M: m, N: n, PR: pr, PC: pc, Row: me / pc, Col: me % pc, Local: local}, nil
	}
	if global == nil {
		return nil, fmt.Errorf("dist: scatter root %d holds no global matrix", root)
	}
	if global.Rows != m || global.Cols != n {
		return nil, fmt.Errorf("dist: scatter of a %dx%d matrix declared as %dx%d", global.Rows, global.Cols, m, n)
	}
	var own *Matrix
	for r := 0; r < comm.Size(); r++ {
		blk, err := FromGlobal(global, pr, pc, r/pc, r%pc)
		if err != nil {
			return nil, err
		}
		if r == root {
			own = blk
			continue
		}
		if err := Send(comm, r, tagScatter, blk.Local); err != nil {
			return nil, err
		}
	}
	return own, nil
}

// Gather reassembles the m × n global matrix from the cyclic blocks held
// by comm's members (member r ↔ grid coordinates (r/pc, r%pc)) on member
// 0 and returns nil on the others: the factors are assembled once, on
// the rank that emits them. local must be this rank's (m/pr) × (n/pc)
// block. The cost is the transport's Gather of the full matrix, charged
// to every member: log₂P·α + m·n·δ(P)·β.
func Gather(comm transport.Comm, local *lin.Matrix, m, n, pr, pc int) (*lin.Matrix, error) {
	if err := checkBlock("gather", comm, local, m, n, pr, pc); err != nil {
		return nil, err
	}
	flat, err := comm.Gather(0, Flatten(local))
	if err != nil || comm.Index() != 0 {
		return nil, err
	}
	return assemble(flat, m, n, pr, pc)
}

// Allgather is Gather with the global matrix on every member: the
// Allgather over a cube slice that gives each rank the whole base-case
// panel (Algorithm 3 line 1).
func Allgather(comm transport.Comm, local *lin.Matrix, m, n, pr, pc int) (*lin.Matrix, error) {
	if err := checkBlock("allgather", comm, local, m, n, pr, pc); err != nil {
		return nil, err
	}
	flat, err := comm.Allgather(Flatten(local))
	if err != nil {
		return nil, err
	}
	return assemble(flat, m, n, pr, pc)
}

// GatherRows is Gather for the blocked row layout of the 1D algorithms:
// member r holds rows [r·m/P, (r+1)·m/P) of the m × n matrix, so the
// blocks in member order are the matrix in row-major order and member 0
// wraps the gathered buffer as it is.
func GatherRows(comm transport.Comm, local *lin.Matrix, m, n int) (*lin.Matrix, error) {
	if err := checkBlock("gather", comm, local, m, n, comm.Size(), 1); err != nil {
		return nil, err
	}
	flat, err := comm.Gather(0, Flatten(local))
	if err != nil || comm.Index() != 0 {
		return nil, err
	}
	return Unflatten(m, n, flat)
}

// checkLayout validates a pr × pc process grid laid over comm against
// the global dimensions.
func checkLayout(what string, comm transport.Comm, m, n, pr, pc int) error {
	if err := checkGrid(m, n, pr, pc); err != nil {
		return err
	}
	if comm.Size() != pr*pc {
		return fmt.Errorf("dist: %s over %d ranks on a %dx%d process grid (want %d)", what, comm.Size(), pr, pc, pr*pc)
	}
	return nil
}

// checkBlock is checkLayout plus the shape of this member's block.
func checkBlock(what string, comm transport.Comm, local *lin.Matrix, m, n, pr, pc int) error {
	if err := checkLayout(what, comm, m, n, pr, pc); err != nil {
		return err
	}
	if local == nil || local.Rows != m/pr || local.Cols != n/pc {
		return fmt.Errorf("dist: %s of %s, want %dx%d", what, shape(local), m/pr, n/pc)
	}
	return nil
}

// shape names a block in an error message.
func shape(a *lin.Matrix) string {
	if a == nil {
		return "a nil local block"
	}
	return fmt.Sprintf("a %dx%d local block", a.Rows, a.Cols)
}

// assemble interleaves the pr·pc equal cyclic blocks of a gathered
// buffer, in member order, into the m × n global matrix.
func assemble(flat []float64, m, n, pr, pc int) (*lin.Matrix, error) {
	blk := (m / pr) * (n / pc)
	if len(flat) != blk*pr*pc {
		return nil, fmt.Errorf("dist: gathered %d values, want %d", len(flat), blk*pr*pc)
	}
	global := lin.NewMatrix(m, n)
	for r := 0; r < pr*pc; r++ {
		interleave(global, pr, pc, r/pc, r%pc, flat[r*blk:(r+1)*blk], n/pc)
	}
	return global, nil
}
