package grid

import (
	"fmt"

	"cacqr/internal/transport"
)

// Grid is one rank's view of a c × d × c processor grid.
type Grid struct {
	C, D    int // grid dimensions: C × D × C
	X, Y, Z int // this rank's coordinates

	// World spans all C·D·C grid members (the communicator the grid was
	// built over), ordered by linearized coordinates.
	World transport.Comm
	// XComm is Π[:, y, z]: the C ranks varying x. Index = x.
	XComm transport.Comm
	// YComm is Π[x, :, z]: the D ranks varying y. Index = y.
	YComm transport.Comm
	// ZComm is Π[x, y, :]: the C ranks varying z (depth). Index = z.
	ZComm transport.Comm
	// Slice is Π[:, :, z]: the C·D ranks of this rank's 2D slice,
	// ordered y-major (index = y·C + x).
	Slice transport.Comm
	// YGroup is Π[x, c⌊y/c⌋ : c⌊y/c⌋+c−1, z]: the contiguous group of C
	// ranks along y containing this rank (Algorithm 8 line 3).
	// Index = y mod C.
	YGroup transport.Comm
	// YStride is Π[x, y mod c : c : d−1, z]: the D/C ranks along y whose
	// y ≡ this rank's y (mod C) (Algorithm 8 line 4). Index = ⌊y/C⌋.
	YStride transport.Comm
	// Cube is the c × c × c subcube containing this rank (Algorithm 8
	// line 6), on which CFR3D and MM3D execute.
	Cube *Cube
	// Group is ⌊y/C⌋: which subcube along the y dimension this rank
	// belongs to, in [0, D/C).
	Group int
}

// Cube is one rank's view of an E × E × E cubic grid (a subcube of a
// Grid, or a standalone 3D grid).
type Cube struct {
	E       int // cube edge
	X, Y, Z int // coordinates within the cube

	// Comm spans all E³ cube members, ordered x + E·(y + E·z).
	Comm transport.Comm
	// XComm, YComm, ZComm vary one coordinate each (sizes E).
	XComm, YComm, ZComm transport.Comm
	// Slice is the cube's 2D slice Π[:, :, z] (E² ranks, index y·E + x).
	Slice transport.Comm

	ws *Workspace // made by the first Workspace call
}

// Workspace returns the rank's workspace, which the first call makes
// with room for words float64s — the caller's memory model for what it
// is about to run — and every later call, by whichever algorithm, gets
// as it is. A Grid's workspace is its Cube's.
func (cb *Cube) Workspace(words int64) *Workspace {
	if cb.ws == nil {
		cb.ws = newWorkspace(int(words))
	}
	return cb.ws
}

// Workspace is the workspace of the rank's subcube: one per rank,
// whichever of the two the algorithm holds.
func (g *Grid) Workspace(words int64) *Workspace { return g.Cube.Workspace(words) }

// New builds a c × d × c grid over the first c·d·c members of comm.
// Every member of comm must call New with the same arguments; members
// beyond c·d·c receive a nil grid. Requires c ≥ 1, d ≥ 1, and c | d so
// the subcube partition of Algorithm 8 exists. It communicates nothing
// and builds only the caller's own communicators (see the package
// comment).
func New(comm transport.Comm, c, d int) (*Grid, error) {
	if c < 1 || d < 1 {
		return nil, fmt.Errorf("grid: invalid dimensions c=%d d=%d", c, d)
	}
	if d%c != 0 {
		return nil, fmt.Errorf("grid: c=%d must divide d=%d for the subcube partition", c, d)
	}
	p := c * d * c
	if comm.Size() < p {
		return nil, fmt.Errorf("grid: need %d ranks for a %dx%dx%d grid, have %d", p, c, d, c, comm.Size())
	}
	rank := comm.Index()
	if rank >= p {
		pass(comm, 12)
		return nil, nil
	}
	x, y, z := rank%c, (rank/c)%d, rank/(c*d)
	first := y - y%c // the lowest y of this rank's subcube
	at := func(x, y, z int) int { return x + c*(y+d*z) }
	// The calls below run in the order written, the same twelve on every
	// member: members of one group pass one list at one position.
	return &Grid{
		C: c, D: d, X: x, Y: y, Z: z, Group: y / c,
		World:   comm.Subgroup(list(p, func(i int) int { return i })),
		XComm:   comm.Subgroup(list(c, func(i int) int { return at(i, y, z) })),
		YComm:   comm.Subgroup(list(d, func(i int) int { return at(x, i, z) })),
		ZComm:   comm.Subgroup(list(c, func(i int) int { return at(x, y, i) })),
		Slice:   comm.Subgroup(list(c*d, func(i int) int { return at(i%c, i/c, z) })),
		YGroup:  comm.Subgroup(list(c, func(i int) int { return at(x, first+i, z) })),
		YStride: comm.Subgroup(list(d/c, func(i int) int { return at(x, i*c+y%c, z) })),
		Cube:    buildCube(comm, list(c*c*c, func(i int) int { return at(i%c, first+(i/c)%c, i/(c*c)) }), c),
	}, nil
}

// NewCube builds a standalone E × E × E cubic grid over the first E³
// members of comm (the paper's 3D grid for 3D-CQR2; also used directly by
// MM3D and CFR3D tests). Members beyond E³ receive nil.
func NewCube(comm transport.Comm, e int) (*Cube, error) {
	if e < 1 {
		return nil, fmt.Errorf("grid: invalid cube edge %d", e)
	}
	if comm.Size() < e*e*e {
		return nil, fmt.Errorf("grid: need %d ranks for an edge-%d cube, have %d", e*e*e, e, comm.Size())
	}
	return buildCube(comm, list(e*e*e, func(i int) int { return i }), e), nil
}

// buildCube makes the caller's five communicators of the cube over the
// parent indices idx (length e³, ordered x + e·(y + e·z)). All parent
// ranks must call it; one that is not on idx gets nil.
func buildCube(comm transport.Comm, idx []int, e int) *Cube {
	cm := comm.Subgroup(idx)
	if cm == nil {
		pass(comm, 4)
		return nil
	}
	r := cm.Index()
	x, y, z := r%e, (r/e)%e, r/(e*e)
	at := func(x, y, z int) int { return idx[x+e*(y+e*z)] }
	return &Cube{
		E: e, X: x, Y: y, Z: z,
		Comm:  cm,
		XComm: comm.Subgroup(list(e, func(i int) int { return at(i, y, z) })),
		YComm: comm.Subgroup(list(e, func(i int) int { return at(x, i, z) })),
		ZComm: comm.Subgroup(list(e, func(i int) int { return at(x, y, i) })),
		Slice: comm.Subgroup(list(e*e, func(i int) int { return at(i%e, i/e, z) })),
	}
}

// list is the member list of one group: n parent indices, the i-th
// given by at.
func list(n int, at func(i int) int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = at(i)
	}
	return idx
}

// pass makes n Subgroup calls that name no one: how a rank outside the
// grid keeps its count of derived communicators, which every later
// Split or Subgroup on comm hashes into the child's id, in step with
// the members'.
func pass(comm transport.Comm, n int) {
	for i := 0; i < n; i++ {
		comm.Subgroup(nil)
	}
}

// TransposePartner returns the index within Slice of the rank at the
// transposed coordinates (y, x, z) — the partner for the paper's
// Transpose collective on a cyclic distribution.
func (cb *Cube) TransposePartner() int {
	return cb.X*cb.E + cb.Y
}
