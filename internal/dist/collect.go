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
// the package comment): an operand is borrowed, a destination is the
// caller's before the call and holds the result after it, and a Bcast
// root gets its operand back.

// tagScatter tags Scatter's point-to-point sends. It lives well below the
// collectives' internal tag block (-101…) so user tags never collide.
const tagScatter = -1100

// Bcast hands root's rows × cols matrix to every member (the paper's
// Bcast(A, Π[…])). Only root reads a (the others may pass nil), and root
// gets a itself back; every other member gets its copy in dst. Root
// writes dst only to pack a strided a for the wire.
func Bcast(comm transport.Comm, root int, a, dst *lin.Matrix, rows, cols int) (*lin.Matrix, error) {
	into, err := storage("bcast", dst, rows, cols)
	if err != nil {
		return nil, err
	}
	if comm.Index() != root {
		flat, err := comm.BcastInto(root, nil, into)
		if err != nil {
			return nil, err
		}
		return result(dst, rows, cols, flat)
	}
	if a == nil || a.Rows != rows || a.Cols != cols {
		return nil, fmt.Errorf("dist: bcast root %d holds %s, declared as %dx%d", root, shape(a), rows, cols)
	}
	if _, err := comm.BcastInto(root, flattenInto(a, into), nil); err != nil {
		return nil, err
	}
	return a, nil
}

// Reduce sums the members' equal-shaped matrices onto root: the sum on
// root (in dst), nil elsewhere, where dst is not looked at.
func Reduce(comm transport.Comm, root int, a, dst *lin.Matrix) (*lin.Matrix, error) {
	var into []float64
	if comm.Index() == root {
		var err error
		if into, err = storage("reduce", dst, a.Rows, a.Cols); err != nil {
			return nil, err
		}
	}
	flat, err := comm.ReduceInto(root, Flatten(a), into)
	if err != nil || comm.Index() != root {
		return nil, err
	}
	return result(dst, a.Rows, a.Cols, flat)
}

// Allreduce sums the members' equal-shaped matrices and returns the sum,
// in dst, on every member.
func Allreduce(comm transport.Comm, a, dst *lin.Matrix) (*lin.Matrix, error) {
	into, err := storage("allreduce", dst, a.Rows, a.Cols)
	if err != nil {
		return nil, err
	}
	flat, err := comm.AllreduceInto(Flatten(a), into)
	if err != nil {
		return nil, err
	}
	return result(dst, a.Rows, a.Cols, flat)
}

// Exchange swaps equal-shaped matrices with a partner member and returns
// the partner's, in dst — the data movement of the paper's Transpose
// collective (the local transposition is the caller's). partner == self
// returns a copy.
func Exchange(comm transport.Comm, partner int, a, dst *lin.Matrix) (*lin.Matrix, error) {
	into, err := storage("exchange", dst, a.Rows, a.Cols)
	if err != nil {
		return nil, err
	}
	flat, err := comm.TransposeInto(partner, Flatten(a), into)
	if err != nil {
		return nil, err
	}
	return result(dst, a.Rows, a.Cols, flat)
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
	own, err := FromGlobal(global, pr, pc, root/pc, root%pc)
	if err != nil {
		return nil, err
	}
	// Send borrows its operand, so one block serves every other member.
	var blk *lin.Matrix
	for r := 0; r < comm.Size(); r++ {
		if r == root {
			continue
		}
		if blk == nil {
			blk = lin.NewMatrix(m/pr, n/pc)
		}
		if err := Extract(global, pr, pc, r/pc, r%pc, blk); err != nil {
			return nil, err
		}
		if err := Send(comm, r, tagScatter, blk); err != nil {
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

// Allgather is Gather with the global matrix, in dst, on every member:
// the Allgather over a cube slice that gives each rank the whole
// base-case panel (Algorithm 3 line 1). The blocks arrive one after the
// other in wire, any compact matrix of m·n elements, and are interleaved
// from there into dst; a strided local is packed through dst first,
// which is free until then. Either may be nil, and is then allocated.
func Allgather(comm transport.Comm, local, wire, dst *lin.Matrix, m, n, pr, pc int) (*lin.Matrix, error) {
	if err := checkBlock("allgather", comm, local, m, n, pr, pc); err != nil {
		return nil, err
	}
	var blocks []float64
	if wire != nil {
		if wire.Stride != wire.Cols || wire.Rows*wire.Cols != m*n {
			return nil, fmt.Errorf("dist: allgather wire is %dx%d with stride %d, want %d compact elements", wire.Rows, wire.Cols, wire.Stride, m*n)
		}
		blocks = wire.Data[: m*n : m*n]
	}
	global := dst
	if global == nil {
		global = lin.NewMatrix(m, n)
	} else if _, err := storage("allgather", dst, m, n); err != nil {
		return nil, err
	}
	flat, err := comm.AllgatherInto(flattenInto(local, global.Data), blocks)
	if err != nil {
		return nil, err
	}
	return global, interleaveAll(global, flat, pr, pc)
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
// buffer, in member order, into a new m × n global matrix.
func assemble(flat []float64, m, n, pr, pc int) (*lin.Matrix, error) {
	global := lin.NewMatrix(m, n)
	return global, interleaveAll(global, flat, pr, pc)
}

// interleaveAll writes every element of global from the gathered buffer.
func interleaveAll(global *lin.Matrix, flat []float64, pr, pc int) error {
	blk := (global.Rows / pr) * (global.Cols / pc)
	if len(flat) != blk*pr*pc {
		return fmt.Errorf("dist: gathered %d values, want %d", len(flat), blk*pr*pc)
	}
	for r := 0; r < pr*pc; r++ {
		interleave(global, pr, pc, r/pc, r%pc, flat[r*blk:(r+1)*blk], global.Cols/pc)
	}
	return nil
}
