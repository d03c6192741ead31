package dist

import (
	"fmt"

	"cacqr/internal/lin"
	"cacqr/internal/transport"
)

// tagScatter tags Scatter's point-to-point sends. It lives well below the
// collectives' internal tag block (-1000…) so user tags never collide.
const tagScatter = -1100

// Scatter distributes the m × n matrix held by comm member root across
// the pr × pc process grid laid over comm in row-major order (member
// r ↔ grid coordinates (r/pc, r%pc), the ordering of a grid slice
// communicator). Every member receives its cyclic block, root included;
// only root reads global — other members pass nil. Root is charged one
// α + (m/pr)·(n/pc)·β send per non-root member, the cost of a
// straightforward MPI_Scatterv.
func Scatter(comm transport.Comm, root int, global *lin.Matrix, m, n, pr, pc int) (*Matrix, error) {
	if err := checkGrid(m, n, pr, pc); err != nil {
		return nil, err
	}
	if comm.Size() != pr*pc {
		return nil, fmt.Errorf("dist: scatter over %d ranks onto a %dx%d process grid (want %d)", comm.Size(), pr, pc, pr*pc)
	}
	if root < 0 || root >= comm.Size() {
		return nil, fmt.Errorf("dist: scatter root %d out of range %d", root, comm.Size())
	}
	me := comm.Index()
	if me == root {
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
			if err := comm.Send(r, tagScatter, Flatten(blk.Local)); err != nil {
				return nil, err
			}
		}
		return own, nil
	}
	flat, err := comm.Recv(root, tagScatter)
	if err != nil {
		return nil, err
	}
	local, err := Unflatten(m/pr, n/pc, flat)
	if err != nil {
		return nil, err
	}
	return &Matrix{M: m, N: n, PR: pr, PC: pc, Row: me / pc, Col: me % pc, Local: local}, nil
}

// Gather reassembles the m × n global matrix from the cyclic blocks held
// by comm's members (member r ↔ grid coordinates (r/pc, r%pc)) on member
// 0 and returns nil on the others: the factors are assembled once, on
// the rank that emits them. local must be this rank's (m/pr) × (n/pc)
// block. The cost is the transport's Gather of the full matrix, charged
// to every member: log₂P·α + m·n·δ(P)·β.
func Gather(comm transport.Comm, local *lin.Matrix, m, n, pr, pc int) (*lin.Matrix, error) {
	if err := checkGrid(m, n, pr, pc); err != nil {
		return nil, err
	}
	if comm.Size() != pr*pc {
		return nil, fmt.Errorf("dist: gather over %d ranks from a %dx%d process grid (want %d)", comm.Size(), pr, pc, pr*pc)
	}
	lr, lc := m/pr, n/pc
	if local == nil {
		return nil, fmt.Errorf("dist: gather of a nil local block, want %dx%d", lr, lc)
	}
	if local.Rows != lr || local.Cols != lc {
		return nil, fmt.Errorf("dist: gather of a %dx%d local block, want %dx%d", local.Rows, local.Cols, lr, lc)
	}
	flat, err := comm.Gather(0, Flatten(local))
	if err != nil || comm.Index() != 0 {
		return nil, err
	}
	blk := lr * lc
	if len(flat) != blk*comm.Size() {
		return nil, fmt.Errorf("dist: gathered %d values, want %d", len(flat), blk*comm.Size())
	}
	global := lin.NewMatrix(m, n)
	for r := 0; r < comm.Size(); r++ {
		interleave(global, pr, pc, r/pc, r%pc, flat[r*blk:(r+1)*blk], lc)
	}
	return global, nil
}
