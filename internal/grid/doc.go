// Package grid builds the tunable c × d × c processor grids of the
// CA-CQR2 paper on top of a transport communicator: per-dimension
// communicators, 2D slices, the contiguous and strided y-subgroups of
// Algorithm 8, and the c × c × c subcubes on which CFR3D and MM3D run —
// the fibres Π[:, y, z], Π[x, :, z], Π[x, y, :] … the paper's listings
// name a collective's participants by.
//
// Rank (x, y, z) of a c × d × c grid linearizes as x + c·(y + d·z), with
// x ∈ [0, c), y ∈ [0, d), z ∈ [0, c). The paper's 3D grid is the special
// case d = c, and its 1D grid is c = 1.
//
// A rank builds only the communicators it sits on. Construction is
// communication-free (transport.Comm.Subgroup): every rank of the parent
// communicator makes the same fixed sequence of calls — twelve for a
// grid, five for a cube, whatever c and d are — and passes, at each
// position, the member list of its own group of that kind, computed from
// its coordinates. A child communicator's id is a hash of the parent's
// id, the position in that sequence and the list, so the members of one
// group (same position, same list) derive one id, groups of one kind
// (same position, different lists) and kinds (different positions)
// differ, and nobody enumerates a group it is not in. A rank outside the
// grid makes the same number of calls with an empty list: it gets no
// communicator, and its call count — which the next Split or Subgroup on
// the parent hashes — stays in step with the members'.
//
// A rank's Cube also carries the rank's Workspace (workspace.go): the one
// slab of words every temporary and intermediate result of the
// algorithms that run on the grid is taken from. It is made by the first
// call that asks for it and sized by what that caller is about to run —
// core.CACQR2 and core.PanelCACQR2 ask for their row of the memory model
// (costmodel.CACQR2Memory, PanelCACQR2Memory) less the input block the
// row counts and the caller owns; MM3D or CFR3D alone on a bare cube ask
// for their own few blocks — and it is not resized: a request past it is
// served from the heap and counted, which is how a test holds a run to
// its modeled memory (Overflows is 0, HighWater ≤ the row). The
// discipline is a stack: a result's slot is taken by the caller before
// the call, the callee's temporaries stack above it between a Mark and a
// Release, and nothing is freed one by one. It is reachable from the
// Cube only, so it dies with the job whose rank built the grid; nothing
// is pooled across jobs.
//
// Data on a grid is laid out by the cyclic distribution of package dist:
// matrix rows cycle over the y dimension, columns over x, and blocks are
// replicated across the depth dimension z. dist also holds the
// collectives on matrices that run over these communicators; the two
// packages are the layout layer, and the only code that knows how a
// rank's communicators are listed or how a matrix crosses one.
package grid
