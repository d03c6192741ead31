package core

import (
	"fmt"
	"math"

	"cacqr/internal/cfr3d"
	"cacqr/internal/costmodel"
	"cacqr/internal/dist"
	"cacqr/internal/grid"
	"cacqr/internal/lin"
	"cacqr/internal/mm3d"
	"cacqr/internal/obs"
)

// Params tune the CA-CQR2 algorithm the way the paper's experiment
// legends do.
type Params struct {
	// InverseDepth is the last recursive level at which CFR3D forms the
	// explicit triangular inverse (legend parameter InverseDepth). 0
	// computes the full inverse; k > 0 leaves the top k levels to a
	// blocked substitution in the Q = A·R⁻¹ step, saving flops at the
	// price of extra MM3D synchronizations.
	InverseDepth int
	// BaseSize is CFR3D's n_o (0 = the bandwidth-optimal default).
	BaseSize int
	// Workers bounds the goroutines each rank's local level-3 kernels may
	// use (≤ 1 = serial). Simulated grids already run one goroutine per
	// rank, so the default of 1 avoids oversubscribing the host; raise it
	// when ranks are few and matrices large. Results are identical for
	// any value.
	Workers int
}

// localWorkers resolves the Params knob for per-rank kernels: anything
// below 1 means serial.
func (p Params) localWorkers() int {
	if p.Workers < 1 {
		return 1
	}
	return p.Workers
}

// CACQR runs Algorithm 8 over a c × d × c grid: one CholeskyQR pass whose
// Gram-matrix work runs on d/c independent subcubes.
//
// aLocal is this rank's m/d × n/c block of A (rows cyclic over y, columns
// cyclic over x), replicated on every depth slice z. The returned Q block
// has the same distribution as A; the returned R block is the n × n
// upper factor distributed cyclically over the rank's subcube slice
// (rows over cube-y, columns over x) and replicated across depth and
// across subcubes. Both live in the grid's workspace.
//
// At c = 1 the subcube is one rank and this is Algorithm 6, 1D-CQR: each
// of the d ranks holds m/d cyclic rows, the Gram matrix is a local
// product plus one Allreduce, and every rank factors it whole.
func CACQR(g *grid.Grid, aLocal *lin.Matrix, m, n int, prm Params) (qLocal, rLocal *lin.Matrix, err error) {
	return onGrid(g, aLocal, m, n, 1, false, prm)
}

// CACQR2 runs Algorithm 9: two CA-CQR passes and R = R₂·R₁ by MM3D over
// the subcube. The second pass runs in place — Q₁ becomes Q where it
// lies, R₂ becomes R — so the rank holds one tall block besides its
// input and whatever a step needs for the length of that step. At c = 1
// it is Algorithm 7, 1D-CQR2.
func CACQR2(g *grid.Grid, aLocal *lin.Matrix, m, n int, prm Params) (qLocal, rLocal *lin.Matrix, err error) {
	return onGrid(g, aLocal, m, n, 2, false, prm)
}

// ShiftedCACQR3 is the shifted CholeskyQR3 of Fukaya et al. (the
// paper's reference [3]) on the grid: one CA-CQR pass on the shifted
// Gram matrix, whose trace costs one Allreduce of one word over the
// subcube slice (nothing at c = 1), then CA-CQR2 in place, and a second
// fold. It factors inputs far beyond CA-CQR2's κ ≈ ε^{-1/2} breakdown,
// up to κ ≈ 1/ε, at ~1.5× the cost. Arguments and results are CACQR's.
func ShiftedCACQR3(g *grid.Grid, aLocal *lin.Matrix, m, n int, prm Params) (qLocal, rLocal *lin.Matrix, err error) {
	return onGrid(g, aLocal, m, n, 3, true, prm)
}

// onGrid runs the ladder's passes over the grid (see cube). The running
// R and the block the next Rᵢ lands in take turns; one pass needs only
// the one block.
func onGrid(g *grid.Grid, aLocal *lin.Matrix, m, n, passes int, shifted bool, prm Params) (qLocal, rLocal *lin.Matrix, err error) {
	if err := checkShapes(g, aLocal, m, n); err != nil {
		return nil, nil, err
	}
	ws, err := workspace(g, m, n, prm)
	if err != nil {
		return nil, nil, err
	}
	t := &cube{g: g, ws: ws, prm: prm, n: n, x: aLocal, q: ws.Matrix(m/g.D, n/g.C), r: ws.Matrix(n/g.C, n/g.C),
		stg: obs.StagesOf(g.World.Proc())}
	defer ws.Release(ws.Mark())
	t.ri = t.r
	if passes > 1 {
		t.ri = ws.Matrix(n/g.C, n/g.C)
	}
	if _, err := Ladder(t, m, passes, shifted); err != nil {
		return nil, nil, err
	}
	return t.q, t.r, nil
}

// workspace is the rank's workspace, sized — if CA-CQR2 on an m × n
// matrix is the first to ask for it — by the model of what CA-CQR2
// holds, less the input block, which the model counts and the caller
// owns: everything else is taken from here. A test holds the model and
// the high-water mark to each other.
func workspace(g *grid.Grid, m, n int, prm Params) (*grid.Workspace, error) {
	words, err := costmodel.CACQR2Memory(m, n, costmodel.CACQRParams{C: g.C, D: g.D, InverseDepth: prm.InverseDepth})
	if err != nil {
		return nil, err
	}
	return g.Workspace(words - int64(m/g.D)*int64(n/g.C)), nil
}

// cube is the Tall of a matrix on a c × d × c grid (Algorithms 8–9):
// the iterate x is this rank's m/d × n/c block, replicated over depth,
// and the Gram matrix z is its cyclic block over the rank's subcube
// slice. Each line runs under its Table V phase and, on a traced rank,
// a stage span of the same label. Measuring ‖G−I‖_F would take an
// Allreduce the paper's algorithm does not pay, so Orth is NaN.
type cube struct {
	g     *grid.Grid
	ws    *grid.Workspace
	prm   Params
	n     int
	x, q  *lin.Matrix // the iterate (A, then Q), and the block every pass writes Q into
	r, ri *lin.Matrix // the running R, and the block the next Rᵢ lands in
	z     *lin.Matrix // this pass's Gram block, taken from ws at mark
	mark  grid.Mark
	stg   *obs.Stages
}

// Gram is lines 1–5: Z = XᵀX over the grid. Line 2 is charged at the
// SYRK rate (m/d)·(n/c)²: the paper's 4mn² + (5/3)n³ critical path counts
// the Gram-matrix work symmetrically, as its implementation's BLAS calls
// do.
func (t *cube) Gram() error {
	t.mark = t.ws.Mark()
	t.z = t.ws.Matrix(t.n/t.g.C, t.n/t.g.C)
	return gramProduct(t.g, t.ws, t.z, t.x, t.x, lin.SyrkFlops(t.x.Rows, t.x.Cols), t.prm.localWorkers())
}

func (t *cube) Orth() float64 { return math.NaN() }

// Factor is lines 6–8, then from the second pass on Algorithm 9's fold
// R = Rᵢ·R by MM3D over the subcube: triangular × triangular, the
// product replacing Rᵢ, run once the pass has given back its workspace.
func (t *cube) Factor(m int, shifted, first bool) error {
	err := t.factor(m, shifted)
	t.ws.Release(t.mark)
	if err != nil {
		return err
	}
	if !first {
		if err := mm3d.MultiplyInto(t.g.Cube, t.ri, t.ri, t.r, true, t.prm.localWorkers()); err != nil {
			return err
		}
	}
	t.r, t.ri = t.ri, t.r
	return nil
}

// factor is lines 6–8: CFR3D on the subcube, Z = Rᵢᵀ·Rᵢ with L = Rᵢᵀ and
// Y = L⁻¹; then Q = X·Rᵢ⁻¹ over the subcube (blocked substitution when
// the top inverse levels were skipped), and the transpose that yields
// Rᵢ = Lᵀ. A shifted pass first adds shiftDiagonal's s to Z's diagonal,
// charged to line 7: the ranks with cube-y = x hold its diagonal
// entries, and one Allreduce of their sums over the subcube slice is the
// trace every slice member needs.
func (t *cube) factor(m int, shifted bool) error {
	p := t.g.World.Proc()
	defer t.stg.Done()
	t.stg.Enter("7:CFR3D")
	defer p.SetPhase(p.SetPhase("7:CFR3D"))
	if shifted {
		onDiagonal := t.g.Cube.X == t.g.Cube.Y
		var part float64
		if onDiagonal {
			part = positiveTrace(t.z)
		}
		trace, err := t.g.Cube.Slice.Allreduce([]float64{part})
		if err != nil {
			return err
		}
		if onDiagonal {
			shiftDiagonal(t.z, m, t.n, trace[0])
		}
	}
	w := t.prm.localWorkers()
	res, err := cfr3d.Factor(t.g.Cube, t.z, t.n, cfr3d.Options{BaseSize: t.prm.BaseSize, InverseDepth: t.prm.InverseDepth, Workers: w})
	if err != nil {
		return err
	}
	t.stg.Enter("8:MM3D(Q)+Transp")
	p.SetPhase("8:MM3D(Q)+Transp")
	if err := cfr3d.ApplyInvT(t.g.Cube, t.q, t.x, res.L, res.Y, t.prm.InverseDepth, true, w); err != nil {
		return err
	}
	t.x = t.q
	return mm3d.TransposeInto(t.g.Cube, t.ri, res.L)
}

// gramProduct is Algorithm 8 lines 1–5 with any left operand: C = Qᵀ·B
// for row-distributed Q and B whose local blocks qLoc and bLoc (m/d rows
// each) are replicated over depth — Q = B = A gives the Gram matrix of
// CA-CQR, Q = Qₖ and B = A_rest the trailing product of the panel
// variant. The result, written into the caller's dst, is distributed
// cyclically over each subcube slice (rows over cube-y, columns over x)
// and replicated across depth and subcubes. flops is the charge for the
// local product of line 2. Each line runs under a phase labeled as in
// Table V, so measured per-line costs can be checked against the model's
// decomposition — and, when this rank carries a trace span, under a
// stage span with the same label.
func gramProduct(g *grid.Grid, ws *grid.Workspace, dst, qLoc, bLoc *lin.Matrix, flops int64, workers int) error {
	defer ws.Release(ws.Mark())
	p := g.World.Proc()
	stg := obs.StagesOf(p)
	defer stg.Done()

	// Line 1: Bcast Q along Π[:, y, z] from root x = z; W is the block
	// of the processor column x = z, only read below (on the root it is
	// qLoc itself: dist's ownership rule).
	stg.Enter("1:Bcast(A)")
	defer p.SetPhase(p.SetPhase("1:Bcast(A)"))
	w, err := dist.Bcast(g.XComm, g.Z, qLoc, ws.Matrix(qLoc.Rows, qLoc.Cols), qLoc.Rows, qLoc.Cols)
	if err != nil {
		return err
	}

	// Line 2: X = Wᵀ·B.
	stg.Enter("2:MM(WtA)")
	p.SetPhase("2:MM(WtA)")
	x := ws.Matrix(qLoc.Cols, bLoc.Cols)
	lin.GemmParallel(workers, true, false, 1, w, bLoc, 0, x)
	if err := p.Compute(flops); err != nil {
		return err
	}

	// Line 3: Reduce within the contiguous y-group onto root offset z.
	// Off the root the block stays zero: line 4's contribution of the
	// groups that hold no partial sum.
	stg.Enter("3:Reduce")
	p.SetPhase("3:Reduce")
	y := ws.Matrix(x.Rows, x.Cols)
	if g.YGroup.Index() != g.Z {
		y.Zero()
	}
	if _, err := dist.Reduce(g.YGroup, g.Z, x, y); err != nil {
		return err
	}

	// Line 4: Allreduce across the strided y-groups. Only the groups
	// whose offset equals z hold partial sums; the rest contribute
	// zeros and their result is discarded by the depth broadcast. The
	// root of that broadcast sums straight into dst.
	stg.Enter("4:Allreduce")
	p.SetPhase("4:Allreduce")
	depthRoot := g.Y % g.C
	z := dst
	if g.Z != depthRoot {
		z = ws.Matrix(x.Rows, x.Cols)
	}
	if _, err := dist.Allreduce(g.YStride, y, z); err != nil {
		return err
	}

	// Line 5: Bcast along depth from root z = y mod c, giving every
	// slice of every subcube the cyclic block of the product.
	stg.Enter("5:Bcast(Z,depth)")
	p.SetPhase("5:Bcast(Z,depth)")
	_, err = dist.Bcast(g.ZComm, depthRoot, z, dst, x.Rows, x.Cols)
	return err
}

func checkShapes(g *grid.Grid, aLocal *lin.Matrix, m, n int) error {
	if g == nil {
		return fmt.Errorf("core: rank outside the processor grid")
	}
	if m < n {
		return fmt.Errorf("core: CA-CQR requires m ≥ n, got %dx%d", m, n)
	}
	if m%g.D != 0 || n%g.C != 0 {
		return fmt.Errorf("core: %dx%d matrix not divisible by %dx%d grid blocks", m, n, g.D, g.C)
	}
	if aLocal.Rows != m/g.D || aLocal.Cols != n/g.C {
		return fmt.Errorf("core: local block %dx%d, want %dx%d", aLocal.Rows, aLocal.Cols, m/g.D, n/g.C)
	}
	return nil
}
